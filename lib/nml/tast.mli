(** Typed abstract syntax.

    Every node carries its inferred type; primitive occurrences carry their
    instantiated type, which is how the paper's [car^s] annotation is
    realized: for an occurrence of [car] at type [t list -> t], the spine
    annotation is [s = spines (t list)] (read with {!car_spines}). *)

type texpr = { desc : desc; ty : Ty.t; loc : Loc.t }

and desc =
  | Const of Ast.const
  | Prim of Ast.prim
  | Var of string
  | App of texpr * texpr
  | Lam of string * texpr
  | If of texpr * texpr * texpr
  | Letrec of (string * texpr) list * texpr

val param_ty : texpr -> Ty.t
(** Parameter type of a [Lam] node (the domain of its arrow type).
    @raise Invalid_argument on other nodes. *)

val car_spines : texpr -> int
(** For a [Prim Car] or [Prim Cdr] occurrence, the [s] of the paper's
    [car^s]: the spine count of its list argument type.
    @raise Invalid_argument on other nodes. *)

val erase : texpr -> Ast.expr
(** Forgets types, recovering the surface AST. *)

val default_ground : texpr -> unit
(** Replaces every unification variable still unbound anywhere in the
    tree's types by [int] (in place).  This selects the paper's "simplest
    monotyped instance" of a polymorphic definition (section 5). *)

val free_vars : texpr -> string list
(** Free identifiers in order of first occurrence. *)

val iter_tys : (Ty.t -> unit) -> texpr -> unit
(** Applies the function to the type of every node. *)

val max_list_depth : texpr -> int
(** The largest {!Ty.max_list_depth} of any node's type: what a tree
    contributes to the per-program chain bound [d]. *)

val size : texpr -> int

val pp : Format.formatter -> texpr -> unit
(** Pretty-prints the erased expression (no type decoration). *)

val pp_typed : Format.formatter -> texpr -> unit
(** One-line rendering with the node's type: [expr : ty]. *)
