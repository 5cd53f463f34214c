(** Standard (call-by-value) semantics of [nml].

    This is the reference interpreter: the exact escape semantics of the
    paper is an abstraction of a concrete execution, and the taint
    interpreter ({!Core.Exact}) as well as the storage simulator
    ({!Runtime.Machine}) must agree with the results produced here.

    An expression is resolved once into a private code tree, then run.
    A variable becomes a frame address; an application pushes one frame
    holding its argument and a [letrec] one frame holding its group's
    slots, so the cost of a call does not depend on how many names are
    in scope.  Closures capture the frame chain by reference.  A
    saturated unary or binary primitive application is one node that
    spends exactly the steps of the nested applications it stands for:
    [fuel] counts one step per source node reached and one per
    application.  The resolver shares nothing
    with {!Runtime.Machine}'s, keeping this an independent oracle leg. *)

type value =
  | Vint of int
  | Vbool of bool
  | Vnil
  | Vcons of value * value
  | Vpair of value * value
  | Vleaf
  | Vnode of value * value * value  (** left, label, right *)
  | Vclos of string * code * env  (** parameter, resolved body, captured env *)
  | Vprim of Ast.prim * value list  (** partially applied primitive *)

and code
(** A resolved function body. *)

and env
(** Environments map identifiers to values; [letrec] is implemented with
    backpatched slots, so reading a binding before its definition has
    been evaluated is a runtime error (as in OCaml's [let rec]). *)

exception Runtime_error of string
exception Out_of_fuel

val empty_env : env
val bind : string -> value -> env -> env
val lookup : env -> string -> value

val letrec_frame : string array -> value list -> env -> env
(** [letrec_frame names filled env] is the environment a [letrec] of
    [names] over [env] has while only its first [List.length filled]
    right-hand sides have been evaluated, to those values: what a closure
    made by a later right-hand side captures.  For tests. *)

val env_values : env -> value list
(** The values of the visible bindings of the environment: a binding
    shadowed by an inner one of the same name is skipped, and so are
    pending [letrec] slots that have not been evaluated yet.  Used by the
    escape observer to traverse what a closure captures. *)

val eval : ?fuel:int -> ?env:env -> Ast.expr -> value
(** Evaluates an expression.  [fuel] bounds the number of evaluation steps
    (default: unlimited) and protects property-based tests against
    divergent generated programs: @raise Out_of_fuel when exhausted.
    @raise Runtime_error for [car]/[cdr] of [nil], division by zero,
    application of a non-function, and unbound identifiers. *)

val run : ?fuel:int -> Surface.t -> value
(** Evaluates a whole program. *)

val defs_env : ?fuel:int -> Surface.t -> env
(** Evaluates just the definitions of a program, returning the recursive
    environment binding them (the program's main expression is not
    evaluated). *)

val apply_value : ?fuel:int -> value -> value list -> value
(** Applies an already evaluated function value to evaluated arguments —
    used by the dynamic escape observer, which must tag argument values
    before the call. *)

val value_of_int_list : int list -> value
val int_list_of_value : value -> int list
(** @raise Runtime_error if the value is not a flat list of integers. *)

val list_of_value : value -> value list
(** Spine of a list value as an OCaml list.
    @raise Runtime_error on non-lists. *)

val equal_value : value -> value -> bool
(** Structural equality on first-order values; closures and partial
    applications are never equal to anything (returns [false]). *)

val pp_value : Format.formatter -> value -> unit
