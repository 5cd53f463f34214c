(** The basic escape domain [B_e] (section 3.2).

    [B_e] is the finite chain

    {v <0,0> ⊑ <1,0> ⊑ <1,1> ⊑ ... ⊑ <1,d> v}

    where [d] is a per-program constant: the largest spine count of any
    list type in the program.  Under the abstract semantics (section 3.4)
    the element [<1,i>] means {e the bottom [i] spines of the interesting
    object may be contained in the value}; [<0,0>] means no part of the
    interesting object is contained.  For a non-list interesting object
    [i] is always [0]: [<1,0>] reads "the (indivisible) object may be
    contained". *)

type t =
  | Zero  (** [<0,0>]: no part of the interesting object *)
  | One of int  (** [<1,i>]: the bottom [i] spines (i >= 0) *)

val zero : t
val one : int -> t
(** @raise Invalid_argument if the spine count is negative. *)

val bottom : t
(** [Zero], the least element. *)

val top : d:int -> t
(** [One d], the greatest element of the chain bounded by [d]. *)

val join : t -> t -> t
val meet : t -> t -> t
val leq : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val spines : t -> int
(** [spines Zero = 0], [spines (One i) = i]: how many bottom spines escape
    (the paper's [esc_i] in Theorem 2). *)

val sub : s:int -> t -> t
(** The paper's [sub^s] on the first component (section 3.4, [car^s]):
    if the value is [<1,s>] — the [s]-th bottom spine of the interesting
    object is part of the top spine of the list being destructed — then
    taking [car] strips one spine, giving [<1,s-1>]; otherwise the value
    is unchanged.  @raise Invalid_argument when [s < 1]. *)

val all : d:int -> t list
(** Every element of the chain, bottom first:
    [[Zero; One 0; ...; One d]]. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation: [<0,0>] or [<1,i>]. *)

val to_string : t -> string

val of_string : string -> t option
(** The inverse of {!to_string}: [<0,0>] or [<1,i>] with [i >= 0];
    [None] on anything else. *)
