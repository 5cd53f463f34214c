(** Abstract escape values: the domain [D_e] of section 3.4, together
    with its application engine, extended to products (the paper's
    "tuples, trees, etc." remark in sections 1 and 7).

    A value pairs a basic escape value (its "first component", what part
    of the interesting object it may contain) with an abstract function
    (its "second component", its behaviour when applied).  The list
    subdomain is collapsed onto the element domain
    ([D_e^{t list} = D_e^t]), so the {e shape} of a value follows
    {!Nml.Ty.shape}: base-shaped values carry the inapplicable [err]
    function, arrow-shaped values carry a real one, and product-shaped
    values additionally carry one abstract value {e per component}
    ([D_e^{t1 * t2}] tracks components separately; [fst]/[snd] project).
    Values also carry their [nml] type — it drives bottoms, tops,
    worst-case functions and probes, never the ordering — and a unique
    [id] used for caching.

    {b Pending application.}  The function component of a recursive
    definition's abstract value re-enters itself when applied (the
    abstract [cdr] is the identity, so recursive calls repeat the same
    abstract arguments).  {!apply} is the pending, memoized application
    every domain shares ({!Framework.Pending}): Kleene iteration of each
    (function id, argument key) entry from the bottom of the result type,
    widened to top after 64 rounds, with completed entries serving as a
    memo table.  This module supplies the argument key and the lattice
    operations.  A {!direct} value (a primitive, one of its partial
    applications, an arrow-shaped bottom) skips the memo: it cannot
    re-enter, and it is rebuilt under a fresh id wherever it occurs, so
    a memo entry for it could never be hit.  Every recursion still
    passes through a memoized value.

    The argument key of a base-shaped argument is its basic escape value
    (exact: such a value is determined by it); for an arrow-shaped
    argument it is the value's [id] (sound: same id, same value); for a
    product it is the pair's own escape value and the component keys.
    Ids are an infinite key space, so a function already pending on a
    function-keyed argument and applied to another one yields top of
    its result type ({!Framework.Pending}).

    {b Chain bound.}  Extensional comparison probes functions with every
    element of the basic chain [B_e] up to the bound [d] of the current
    {!state}, a maximum set with {!ensure_d}.  Growing [d] only adds
    probes (finer comparison), so the setting is monotone and safe.

    {b Solver state.}  All mutable engine state — the application memo,
    the probe and intern tables, the chain bound and the statistics
    counters — lives in an explicit {!state}.  Each domain has a private
    ambient state ({!current_state}); a solver owns a state of its own
    and installs it with {!with_state} around every operation, so
    concurrently live solvers (including solvers in different domains)
    are shared-nothing.  Value {e ids} are process-global atomics: they
    are pure identity tags, and keeping them globally unique makes values
    safe to carry across states (a foreign value at worst misses a memo,
    it can never collide).  What a memo entry read is tracked by
    {!Framework.Deps}, which every analysis shares. *)

type t = private {
  id : int;  (** unique per constructed value *)
  ty : Nml.Ty.t;  (** type of the expression this value abstracts *)
  esc : Besc.t;  (** first component *)
  app : t -> t;  (** second component; raises {!Err_applied} for base shapes *)
  prod : (t * t) option;  (** per-component values for product shapes *)
  direct : bool;
      (** applied by calling [app] straight away, outside the memo (see
          {!direct}) *)
}

exception Err_applied
(** Raised when the paper's [err] — "a function that can never be
    applied" — is applied.  This cannot happen on well-typed programs. *)

val v : ty:Nml.Ty.t -> esc:Besc.t -> app:(t -> t) -> t

val direct : ty:Nml.Ty.t -> esc:Besc.t -> app:(t -> t) -> t
(** Like {!v}, for a function that can never re-enter itself because its
    [app] applies nothing: primitives and their partial applications.
    {!apply} calls such an [app] at once — no memo lookup, no read
    frame, no pending entry — and any reads it made would land in the
    enclosing frame, as if inlined.  Arrow-shaped {!bottom}s are
    direct too. *)

val base : ty:Nml.Ty.t -> Besc.t -> t

val pair : ty:Nml.Ty.t -> esc:Besc.t -> t * t -> t
(** A product-shaped value from its component values; [esc] is the
    containment attributed to the pair structure itself (usually the
    spine containment when the pair sits in a list). *)

val with_esc : Besc.t -> t -> t
(** Same behaviour and components, different first component. *)

val with_ty : Nml.Ty.t -> t -> t

val fst_of : t -> t
val snd_of : t -> t
(** Component projections.  On a product-shaped value without structural
    information (e.g. produced by a worst-case stage) the projection is
    the conservative saturation of the value's own containment. *)

val total_esc : t -> Besc.t
(** Everything contained anywhere in the value: its first component
    joined with its components', recursively.  Coincides with [esc] on
    non-product values. *)

val bottom : Nml.Ty.t -> t
(** Least element at a type: [<0,0>] everywhere. *)

val top : d:int -> Nml.Ty.t -> t
(** Greatest element bounded by [d]: [<1,d>] everywhere. *)

val saturate : esc:Besc.t -> Nml.Ty.t -> t
(** "Something with containment [esc] of unknown structure": functions
    absorb their arguments, components inherit [esc]. *)

(** {2 Solver state} *)

type state
(** One engine's worth of mutable state: application memo, probe and
    intern tables, chain bound, statistics counters. *)

val create_state : unit -> state
(** A cold state: empty tables, bound 0, zeroed counters. *)

val current_state : unit -> state
(** The state every stateful operation below works over: the innermost
    {!with_state} installation, or the calling domain's private ambient
    state when none is installed. *)

val with_state : state -> (unit -> 'a) -> 'a
(** [with_state s f] runs [f] with [s] installed as the current state
    (exception-safe, properly nesting).  The installation is per-domain:
    other domains are unaffected. *)

(** {2 Chain bound} *)

val ensure_d : int -> unit
(** Raises the current state's chain bound to at least the given value. *)

val current_d : unit -> int

(** {2 Selective invalidation}

    The bodies behind abstract function components read other
    definitions' values {e at application time} (through the solver's
    global hook), so a memoized application silently depends on solver
    state that may move between fixpoint passes.  The memo is kept
    across passes: each entry is an entry of the shared dependency
    tracker ({!Framework.Deps}), and {!apply} discards it only once a
    source it read, directly or below, has been touched since
    ({!Framework.Pending}). *)

val memo_entries : unit -> Framework.Deps.entry list
(** The tracker entries of the current state's complete memo entries:
    tests check the flags {!Framework.Deps.touch} maintains against the
    pull definition of staleness. *)

(** {2 Operations} *)

val join : t -> t -> t
(** Pointwise least upper bound (component-wise on products); keeps the
    left type. *)

val apply : t -> t -> t
(** Pending, memoized application (see above); direct for {!direct}
    values. *)

val apply_all : t -> t list -> t

(** {2 Extensional comparison}

    The domains [D_e^t] are finite, so fixpoint iteration terminates and
    convergence is decidable (section 3.5); but enumerating full function
    spaces at higher types is intractable.  Following standard practice
    for Hudak-Young style higher-order analyses, functions are compared
    extensionally on a finite {e probe set} per argument type: every
    basic escape value in the chain [B_e] crossed with the two canonical
    function components that the analysis itself feeds in — the
    worst-case function [W^t] and the bottom function.

    For first-order argument types (everything in the paper's examples)
    the function component of an argument is degenerate, so probing is
    exact: the probe set covers the whole domain.  For higher-order
    argument positions the comparison is approximate; the fixpoint engine
    additionally caps iteration and falls back to the safe top value
    (see {!Fixpoint}).  The full-enumeration alternative for first-order
    types lives in {!Enumerate} and is compared in the benches.  A caller
    comparing at a chain bound [d] raises the state's bound first
    ({!ensure_d}). *)

val probes : Nml.Ty.t -> t list
(** Canonical argument values for an argument of the given type at the
    current chain bound: every element of [B_e] for base shapes, crossed
    with the worst-case and bottom function components for arrow shapes,
    the cross product of component probes for products.  Cached per
    (bound, type) so repeated comparisons reuse value ids. *)

val equal : t -> t -> bool
(** Extensional equality with respect to {!probes}, recursing through the
    (finite) type structure.  Exact for first-order types. *)

val leq : t -> t -> bool

(** {2 Worst-case and probe arguments (Definition 2)}

    [W^t] corresponds to an [nml] function from which every argument
    escapes:

    {v W = λx1. ⟨x1', λx2. ⟨x1' ⊔ x2', ..., λxm. ⟨x1' ⊔ ... ⊔ xm', err⟩⟩⟩ v}

    (writing [x'] for the basic component of [x]), where [m] is the
    number of arguments a function of type [t] takes before returning a
    primitive value, and [W^{t list} = W^t].  For [m = 0], [W = err].

    The global escape test instantiates every parameter with
    [⟨esc, W⟩] — the interesting one with [esc = <1,s_i>], the others
    with [<0,0>] (section 4.1). *)

val w_value : esc:Besc.t -> Nml.Ty.t -> t
(** [⟨esc, W^t⟩]; arguments contribute their {!total_esc}. *)

val interesting : Nml.Ty.t -> t
(** The global test's [y_i]: every structural level marked with its own
    spine count [<1, spines>], function components worst-case. *)

val boring : Nml.Ty.t -> t
(** The global test's [y_j], [j <> i]: [<0,0>] at every level. *)

val mark_interesting : t -> t
val mark_boring : t -> t
(** The local test's [z_i]/[z_j] (section 4.2): the value's actual
    behaviour with its containment replaced by [<1, spines>] (resp.
    [<0,0>]) at every structural level. *)

(** {2 Component-resolved tests (products)}

    With a pair-typed parameter, a single basic escape value conflates
    the component chains; the precise question is asked per component:
    treat only the sub-structure at a projection path as the interesting
    object. *)

type component = Cfst | Csnd

val probe_component : path:component list -> Nml.Ty.t -> t
(** Like {!interesting}, but only the component at [path] is marked. *)

val mark_component : path:component list -> t -> t
(** Like {!mark_interesting}, but only the component at [path]. *)

(** {2 Caches and statistics} *)

val cache_stats : unit -> int * int
(** (hits, misses) of memoized applications since {!reset_stats}; a
    {!direct} application counts as neither. *)

val invalidations : unit -> int
(** Memo entries discarded because a recorded source was touched, since
    {!reset_stats}. *)

val reset_stats : unit -> unit
(** Zeroes the current state's hit, miss and invalidation counters; the
    memo itself is kept. *)

val pp : Format.formatter -> t -> unit
(** Prints the basic component and the type, e.g. [<1,1> : int list]. *)
