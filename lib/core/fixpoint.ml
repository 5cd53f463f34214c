(* The escape fixpoint solver: [Framework.Solver.Make] supplies the
   worklist engine (read frames, SCC condensation, selective
   invalidation, per-solver state), [Espec] supplies the escape domain
   and abstract semantics.  The [stats] equation re-exports the
   framework's shared record so field accesses compile unchanged. *)

type stats = Framework.Solver.stats = {
  stats_passes : int;
  stats_iterations : int;
  stats_entries : int;
  stats_evaluations : int;
  stats_sccs : int;
  stats_largest_scc : int;
  stats_cache_hits : int;
  stats_cache_misses : int;
  stats_cache_invalidated : int;
  stats_dbound : int;
  stats_capped : bool;
}

include Framework.Solver.Make (Espec)
