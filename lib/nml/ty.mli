(** Types of [nml] and the spine arithmetic the analysis needs.

    The paper assumes programs are (monomorphically) typed before the
    analysis runs: the number of {e spines} of every list-typed expression
    is read off its type, and every occurrence of [car] is annotated as
    [car^s] with the spine count of its argument (section 3.4).

    Types contain mutable unification variables ({!Var}) so that the same
    representation serves Hindley-Milner inference ({!Infer}).  All
    observers below implicitly follow variable links. *)

type t =
  | Int
  | Bool
  | List of t
  | Tree of t  (** binary tree type [t tree] with labels of type [t] *)
  | Prod of t * t  (** pair type [t1 * t2] *)
  | Arrow of t * t
  | Var of var ref

and var =
  | Unbound of int * int  (** unique id, binding level *)
  | Link of t

val fresh_var : level:int -> t
(** A fresh unbound unification variable at the given level. *)

val repr : t -> t
(** Canonical representative: follows [Link]s (with path compression). *)

val spines : t -> int
(** Number of spines of a value of this type (Definition 1): 0 for
    non-lists, [1 + spines elt] for [elt list].  An [int list list] has 2
    spines.  A tree's node cells form one spine-like level, so
    [spines (elt tree) = 1 + spines elt] as well.  Unresolved variables
    count as non-lists. *)

val max_list_depth : t -> int
(** Largest {!spines} value of any list type occurring inside the type;
    used to compute the per-program escape-domain bound [d]. *)

val owns_cells : t -> bool
(** Does a value of this type occupy heap cells?  False only for [int]
    and [bool]: list and tree values are made of cells, a pair is itself
    one cell, and a closure may capture cell-owning values.  An unbound
    variable is conservatively cell-owning (it could be instantiated to
    any of those).  This is the sharing analysis' notion of "structured":
    extracting an element of a cell-owning type from a list keeps a hold
    of the argument's heap, where an [int] element cannot. *)

val arity : t -> int
(** The paper's [m]: number of arguments a function of this type can take
    before returning a primitive value.  [arity (a -> b) = 1 + arity b],
    [arity (t list) = arity t] (Definition 2), 0 for [int]/[bool]. *)

type shape = Sbase | Sarrow of t * t | Sprod of t * t

val shape : t -> shape
(** Shape of the abstract escape domain [D_e] at this type after the list
    collapse [D_e^{t list} = D_e^t] (section 3.4): list types take the
    shape of their element type.  Pair types have product shape with
    per-component domains — the extension the paper sketches for tuples
    (section 7). *)

val result_ty : t -> int -> t
(** [result_ty t n] is the result type after applying [n] arguments;
    fails on non-arrows. *)

val arg_tys : t -> int -> t list
(** [arg_tys t n] is the list of the first [n] argument types. *)

val equal : t -> t -> bool
(** Structural equality up to links; unbound variables equal only
    themselves. *)

val contains_var : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints ML style: [int list -> 'a list -> 'a list].  Variables are
    named ['a], ['b], ... deterministically within one call. *)

val to_string : t -> string

val key : t -> string
(** A compact canonical encoding, for hashing instances: [key a = key b]
    exactly when [to_string a = to_string b] (variables are numbered by
    first occurrence, as {!pp} names them).  Written into a [Buffer],
    without [Format]. *)
