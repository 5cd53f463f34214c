(** The analysis [Spec]: everything the generic fixpoint engine
    ({!Solver.Make}) needs to know about one abstract interpretation.

    The shape follows Goblint's [Analyses.Spec] — a swappable abstract
    domain plus transfer functions behind one solver — specialized to
    this compiler's demand-driven, instance-memoizing engine:

    - an {e abstract domain} over the monomorphized types
      ([bottom]/[top], [join]/[leq], probe-based [equal], [widen]);
    - {e per-solver state} ([create_state]/[with_state]): every solver
      owns a private state (memo tables, chain bound) so concurrently
      live solvers — including solvers in different domains — are
      shared-nothing;
    - a {e transfer function} over the typed AST, evaluated under a
      context whose [global] hook resolves top-level definitions at
      ground instance types (the solver supplies it and memoizes per
      {e (definition, instance)}, keying instances itself with
      {!Nml.Ty.key}; a Spec has no [demand_key]).  That part is stated
      once, as {!TRANSFER}, and written once for every domain, as the
      abstract interpreter {!Interp.Make}.

    Dependency tracking is not a Spec's business: the solver tracks what
    each evaluation read with {!Deps}, and a domain whose application
    memo outlives one evaluation links its memo entries into the same
    tracker.  A domain whose memo must not outlive an evaluation drops it
    in [begin_evaluation]; one with no application memo reports zero
    [memo_stats]/[invalidations]. *)

(** The transfer function and the context it runs under.  {!Interp.Make}
    implements it once for every domain; {!Product.Make} pairs two. *)
module type TRANSFER = sig
  type value
  type ctx

  val make_ctx :
    d:(unit -> int) ->
    global:(string -> Nml.Ty.t -> value) ->
    max_iters:int ->
    ctx
  (** [d] reads the solver's current chain bound (it may grow as
      instances are demanded); [global] resolves a top-level definition
      at a ground instance type (the solver's demand hook); [max_iters]
      caps the Kleene iteration of every nested [letrec] group. *)

  val transfer : ctx -> Nml.Tast.texpr -> value
  (** Abstract value of a closed typed expression (definition body)
      under the context. *)

  val iterations : ctx -> int
  val record_iteration : ctx -> unit
  val capped : ctx -> bool
  val set_capped : ctx -> unit
end

module type S = sig
  val name : string
  (** Registry / cache-namespace identifier (e.g. ["escape"]). *)

  (** {2 Abstract domain} *)

  type value

  val bottom : Nml.Ty.t -> value
  (** Least element of the domain at a type. *)

  val top : d:int -> Nml.Ty.t -> value
  (** Greatest element at a type, bounded by the chain bound [d]. *)

  val join : value -> value -> value
  (** Least upper bound; keeps the left operand's type. *)

  val equal : d:int -> value -> value -> bool
  (** Convergence test (extensional / probe-based where needed). *)

  val leq : d:int -> value -> value -> bool
  (** Partial order consistent with [join] (used by law tests and
      clients; the engine itself decides convergence with [equal]). *)

  val widen : d:int -> Nml.Ty.t -> value -> value
  (** Safe over-approximation applied when iteration hits the cap.
      Must be an upper bound of its argument; the canonical
      implementation is [fun ~d ty _ -> top ~d ty]. *)

  (** {2 Per-solver state} *)

  type state

  val create_state : unit -> state
  val with_state : state -> (unit -> 'a) -> 'a

  val ensure_d : int -> unit
  (** Raise the current state's chain bound to at least the given
      value (monotone: growing [d] only refines comparisons). *)

  val begin_evaluation : unit -> unit
  (** Called by the solver before each evaluation of an entry. *)

  (** {2 Application memo statistics} *)

  val memo_stats : unit -> int * int  (** (hits, misses) *)

  val invalidations : unit -> int

  (** {2 Transfer function} *)

  include TRANSFER with type value := value
end
