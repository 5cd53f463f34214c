(** Abstract syntax of [nml], the "not much of a language" calculus of
    Park & Goldberg (PLDI 1992, section 3.1).

    The surface language is strict, higher order, and list manipulating:

    {v
      e ::= c | x | e1 e2 | lambda(x). e
          | if e1 then e2 else e3
          | letrec x1 = e1; ...; xn = en in e
    v}

    Constants include the usual integers and booleans plus the list
    primitives [nil], [cons], [car], [cdr] and [null].  Multi-parameter
    definitions [f x1 ... xn = e], [let], list literals and the binary
    operators are syntactic sugar, eliminated by the parser. *)

type prim =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Not
  | Cons
  | Car
  | Cdr
  | Null
  | Pair
  | Fst
  | Snd
  | Node  (** [node left label right] builds a binary tree node *)
  | Isleaf
  | Label
  | Left
  | Right

type const = Cint of int | Cbool of bool | Cnil | Cleaf

type expr =
  | Const of Loc.t * const
  | Prim of Loc.t * prim
  | Var of Loc.t * string
  | App of Loc.t * expr * expr
  | Lam of Loc.t * string * expr
  | If of Loc.t * expr * expr * expr
  | Letrec of Loc.t * (string * expr) list * expr

type program = expr
(** A program is an expression, conventionally a top-level [letrec]. *)

val loc : expr -> Loc.t

val prim_name : prim -> string
(** Source-level name ([Add] is ["+"], [Cons] is ["cons"], ...). *)

val prim_of_name : string -> prim option
(** Inverse of {!prim_name} for alphabetic primitives only ([cons], [car],
    [cdr], [null], [mkpair], [fst], [snd]); operators are produced directly
    by the parser. *)

val prim_arity : prim -> int

val equal_prim : prim -> prim -> bool
val equal_const : const -> const -> bool

val equal : expr -> expr -> bool
(** Structural equality, ignoring locations. *)

val key : expr -> string
(** A location-free encoding, for content-addressed cache keys:
    [key a = key b] exactly when [equal a b].  One tag per constructor in
    pre-order with length-prefixed names (a prefix code, like
    {!Ty.key}); written into a [Buffer], without [Format]. *)

val add_key : Buffer.t -> expr -> unit
(** Appends {!key} to a buffer, so several keys share one buffer. *)

val add_name : Buffer.t -> string -> unit
(** Appends a string length-prefixed ([<length>:<string>]), the form
    {!key} gives names, so a sequence of them is a prefix code. *)

val free_vars : expr -> string list
(** Free identifiers in order of first occurrence, without duplicates.
    Primitives are not identifiers and never appear. *)

val subst_var : string -> string -> expr -> expr
(** [subst_var x y e] renames free occurrences of [x] to [y]
    (capture is not avoided; used only with fresh names). *)

val app : expr -> expr list -> expr
(** [app f [a1;...;an]] builds the curried application [f a1 ... an];
    locations are merged. *)

val lams : string list -> expr -> expr
(** [lams [x1;...;xn] e] builds [lambda(x1)....lambda(xn). e]. *)

val list_lit : Loc.t -> expr list -> expr
(** Desugars [[e1, ..., en]] into [cons e1 (cons ... nil)]. *)

val int : int -> expr
val bool : bool -> expr
val nil : expr
val var : string -> expr
(** Location-free smart constructors for building programs in OCaml. *)

val size : expr -> int
(** Number of AST nodes; used by benches to report program size. *)
