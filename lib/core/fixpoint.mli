(** Fixpoint solver for a whole program's top-level [letrec] group.

    The meaning of a recursive definition in the escape domain is its
    least fixpoint (section 3.5).  Because the spine annotations inside a
    polymorphic definition depend on the monomorphic instance at which it
    is used, the solver memoizes abstract values per
    {e (definition, ground instance type)} pair, re-typing the definition
    at each demanded instance ({!Nml.Infer.instantiate_def}) — the lazy
    equivalent of whole-program monomorphization.  The solver keys those
    pairs itself, by {!Nml.Ty.key} of the instance.

    A worklist engine solves the resulting equation system, driven by
    dependencies.  Every evaluation runs inside a read frame
    ({!Framework.Deps.watch}) that records which other entries it
    consulted; the first touch of any of them marks the entry dirty, and
    the frame's read set is the instance-level dependency graph,
    flattened only when the sweep condenses it.  Fresh entries are
    solved by recursive descent (dependencies settle before their reader
    is evaluated, so a non-recursive definition is evaluated exactly
    once); the cyclic remainder is condensed into strongly connected
    components ({!Nml.Callgraph.Scc}) and settled bottom-up,
    re-evaluating only entries whose recorded dependencies actually
    changed.  Application memos survive across the whole solve: a value
    change touches the entry's {!Framework.Deps.source}, and only memos
    that read it are invalidated.

    Convergence is decided by {!Dvalue.equal}.  Iteration is capped
    ([max_iters], default 200 rounds); on a cap hit every cached value is
    widened to the top of its type — the safe direction (everything
    escapes) — and {!capped} reports it. *)

type t

val make : ?max_iters:int -> Nml.Infer.program -> t
(** Builds a solver; nothing is computed until a value is demanded. *)

val of_source : ?max_iters:int -> string -> t
(** Parse, infer and wrap a program given as source text. *)

val program : t -> Nml.Infer.program

val d : t -> int
(** Current chain bound: the largest spine count of any list type seen in
    the main expression or any demanded instance. *)

val value : t -> string -> Nml.Ty.t option -> Dvalue.t
(** [value t f (Some ty)] is the abstract value of definition [f] at the
    ground instance [ty]; [value t f None] uses the simplest monotyped
    instance.  Stabilizes the memo table before returning.
    @raise Invalid_argument for unknown definitions, {!Nml.Infer.Error}
    if [ty] is not an instance of [f]'s scheme. *)

val instance_ty : t -> string -> Nml.Ty.t
(** Ground type of the simplest instance of a definition.  Memoized per
    solver: by Theorem 1 that instance is a fixed fact of the program, so
    it is inferred on the first call only and every later call returns
    the same (fully ground) type.
    @raise Invalid_argument for unknown definitions. *)

val eval_expr : t -> Nml.Tast.texpr -> Dvalue.t
(** Abstract value of an arbitrary ground typed expression (local
    environment empty), resolving definition references through the
    solver. *)

val main_value : t -> Dvalue.t
(** Abstract value of the program's main expression. *)

val stabilize : t -> unit
(** Runs the engine until no entry's value changes. *)

val with_state : t -> (unit -> 'a) -> 'a
(** Runs a computation with this solver's private {!Dvalue.state}
    installed.  Every solver owns its own engine state (application memo,
    probe tables, chain bound), created at {!make}; the solver's own
    entry points install it automatically.  Use this wrapper for any
    {e direct} [Dvalue] operation on values obtained from the solver
    (probing, comparison, application), so the operation sees the chain
    bound and caches those values were built under — and so concurrent
    solvers in other domains stay isolated. *)

(** {2 Statistics (for the cost experiments)} *)

val iterations : t -> int
(** Total Kleene rounds, including nested [letrec]s. *)

val passes : t -> int
(** Outer passes, each a recursive descent over fresh entries followed by
    an SCC sweep. *)

val evaluations : t -> int
(** Top-level entry evaluations, the solver's cost metric (each
    evaluation runs the abstract semantics over one definition body). *)

val instances : t -> (string * Nml.Ty.t) list
(** Every (definition, instance) pair materialized so far. *)

val capped : t -> bool

type stats = Framework.Solver.stats = {
  stats_passes : int;
  stats_iterations : int;
  stats_entries : int;
  stats_evaluations : int;
  stats_sccs : int;
      (** components in the last sweep's condensation; 0 when
          recursive descent settled every entry and no sweep ran *)
  stats_largest_scc : int;
  stats_cache_hits : int;
      (** application-memo hits since [make]; like the next two, counts
          memoized applications only — direct ones ({!Dvalue.direct}:
          primitives, arrow bottoms) never touch the memo *)
  stats_cache_misses : int;
  stats_cache_invalidated : int;  (** memos discarded as stale since [make] *)
  stats_dbound : int;
  stats_capped : bool;
}

val stats : t -> stats
(** Snapshot of the solver counters.  The cache numbers come from the
    solver's private {!Dvalue.state}, so they count exactly this solver's
    work no matter how many solvers are alive. *)

val pp_stats : Format.formatter -> stats -> unit
