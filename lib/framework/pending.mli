(** The pending-application memo every abstract domain shares: the
    Kleene fixpoint iteration by which the analysis solves recursion,
    written once.

    A domain's abstract functions may re-enter themselves when applied
    (the abstract [cdr] is the identity, so a recursive call repeats the
    same abstract argument).  {!apply} performs the classic {e pending
    analysis} of higher-order abstract interpretation: each (function
    id, argument key) gets an entry; a cyclic re-entry returns the
    entry's current approximation (initially the bottom of the result
    type); when the body's result exceeds the approximation the
    application is re-run until it stabilizes, and widened to [top]
    after 64 rounds.  The domains are finite, so this terminates and
    computes the least fixpoint of the self-application.  A first run
    that was not re-entered stores the body's own value, not its join
    with the initial bottom: the two are the same function, but the
    value's id is the memo key of every later application of it, and a
    join would mint a fresh id nobody has applied yet.  Completed
    entries serve as a memo table, which makes evaluation polynomial
    where naive unfolding is exponential in the Kleene depth.

    {b Lifetime.}  The memo outlives evaluations: each entry's
    computation runs in a {!Deps} entry frame and a hit links the entry
    into the enclosing frame, so a touched source stales exactly the
    entries that read it, directly or below, and a stale entry is
    discarded and recomputed at its next lookup.

    {b Function-keyed re-entry.}  An argument key of an arrow-shaped
    argument is the argument's value id, an infinite key space: a
    recursion that passes itself a fresh closure on every round
    ([f (cdr x) (fun y -> g y)]) would open a new pending entry per
    closure, without end.  So when a function already has a pending
    entry whose key holds a function id and is applied again, while
    that entry is still pending, on another argument whose key holds a
    function id, the application returns [top] of the result type: the
    safe direction, like the 64-round cap.  It counts as neither a hit
    nor a miss. *)

(** An argument's key: its basic value for base shapes (exact: such a
    value is determined by it), its value id for arrow shapes (sound:
    same id, same value), the pair's own basic value and its component
    keys for products. *)
type 'b key = Base of 'b | Fun of int | Prod of 'b * 'b key * 'b key

(** What the loop needs of a domain whose values are ['v]: [top] is the
    domain's greatest element at the current chain bound, [join] keeps
    the left operand's type, [equal] is the convergence test, and
    [with_ty] retypes a value without changing its identity. *)
type 'v domain = {
  bottom : Nml.Ty.t -> 'v;
  top : Nml.Ty.t -> 'v;
  join : 'v -> 'v -> 'v;
  equal : 'v -> 'v -> bool;
  with_ty : Nml.Ty.t -> 'v -> 'v;
}

type ('v, 'b) t
(** One solver's memo table and its counters. *)

val create : int -> ('v, 'b) t
(** An empty memo whose table starts with room for the given number of
    entries. *)

val apply :
  'v domain -> ('v, 'b) t -> int * 'b key -> Nml.Ty.t -> ('v -> 'v) -> 'v -> 'v
(** [apply dom m (id, k) ty body x] is the pending, memoized application
    of the function with value id [id] and type [ty], whose body is
    [body], to [x], whose key is [k]. *)

val entries : ('v, 'b) t -> Deps.entry list
(** The tracker entries of the complete memo entries: tests check the
    flags {!Deps.touch} maintains against the pull definition. *)

val stats : ('v, 'b) t -> int * int
(** (hits, misses) since {!reset_stats}. *)

val invalidations : ('v, 'b) t -> int
(** Entries discarded because a source they read was touched, since
    {!reset_stats}. *)

val reset_stats : ('v, 'b) t -> unit
(** Zeroes the counters; the memo itself is kept. *)
