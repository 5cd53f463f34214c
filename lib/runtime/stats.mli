(** Storage statistics collected by {!Machine}.

    The paper's optimizations do not change {e what} a program computes,
    only {e where} cons cells live and how they are reclaimed; these
    counters are the quantities its claims are about.

    The generational heap (PR7) adds pause-distribution samples and
    promotion/pretenuring counters.  They are collected unconditionally
    but only rendered by {!to_row} when {!field-generational} is set, so
    the output of legacy runs is byte-for-byte what it always was. *)

type t = {
  mutable heap_allocs : int;  (** cells allocated from the GC heap *)
  mutable arena_allocs : int;  (** cells allocated in regions/blocks *)
  mutable dcons_reuses : int;  (** cells recycled in place by [DCONS]/[DNODE] *)
  mutable gc_runs : int;
  mutable marked : int;  (** total cells marked over all collections *)
  mutable swept : int;  (** total cells reclaimed by sweeping *)
  mutable arena_freed : int;  (** cells reclaimed wholesale at arena exit *)
  mutable heap_capacity : int;  (** final size of the cell store *)
  mutable peak_live : int;  (** maximum simultaneously live cells *)
  mutable steps : int;  (** evaluation steps *)
  mutable chaos_gcs : int;  (** collections forced by fault injection *)
  mutable poisoned : int;  (** freed cells scribbled over by poisoning *)
  (* -- generational heap ------------------------------------------- *)
  mutable generational : bool;
      (** set by {!Machine} for generational runs; gates the extra
          {!to_row} rows so legacy output never changes *)
  mutable minor_gcs : int;  (** nursery collections *)
  mutable major_gcs : int;  (** full-heap collections *)
  mutable promoted : int;  (** cells promoted nursery -> old *)
  mutable pretenured : int;  (** cells allocated directly old, on a hint *)
  mutable remembered : int;  (** write-barrier hits (remembered-set adds) *)
  mutable regions_reclaimed : int;  (** arenas reset wholesale at exit *)
  mutable hint_sites : int;
      (** letrec bindings tagged with an advisory dead-spine hint
          ({!Heap.hinted_dead_spine}) when their closure was created *)
  mutable hints_accepted : int;
      (** calls through a hinted binding that actually passed a list
          spine in a hinted-dead parameter position *)
  (* -- pause distribution ------------------------------------------ *)
  mutable pause_ns : float array;  (** per-collection wall time, ns *)
  mutable pause_cells : int array;  (** per-collection cells touched *)
  mutable pauses : int;  (** samples recorded in the two buffers *)
}

val create : unit -> t
val reset : t -> unit

val total_allocs : t -> int
(** [heap_allocs + arena_allocs] (a [DCONS] is not an allocation). *)

val gc_work : t -> int
(** [marked + swept]: cells the collector had to touch. *)

val now_ns : unit -> float
(** A monotonic clock in nanoseconds, for timing pauses: unlike the
    wall clock it never steps, so a pause is never negative or inflated
    by a clock adjustment. *)

val record_pause : t -> cells:int -> ns:float -> unit
(** Appends one collection-pause sample.  [cells] is the deterministic
    pause proxy (cells marked + swept + remembered-set entries scanned);
    [ns] is wall-clock, kept separate so CI gates never compare it. *)

val pause_percentiles_cells : t -> (int * int * int) option
(** [(p50, p95, max)] over the deterministic cells-touched samples, or
    [None] when no collection ever ran. *)

val pause_percentiles_ns : t -> (float * float * float) option
(** [(p50, p95, max)] over the wall-clock samples, in nanoseconds. *)

val pp : Format.formatter -> t -> unit

val to_row : t -> (string * int) list
(** Labelled counters, for the bench tables.  Chaos counters appear only
    when fault injection fired; generational counters (including the
    cells-touched pause percentiles) only when {!field-generational} is
    set — plain legacy runs print exactly the historical rows. *)

(** {2 Process-global telemetry}

    Every {!Machine.eval} folds the counters it accumulated into a
    process-wide aggregate, so long-lived processes (the [nmlc serve]
    daemon) can report heap activity across all the machines they ever
    ran.  Thread-safe; counters only grow. *)

val global_add : before:t -> after:t -> unit
(** Adds the field-wise difference [after - before] to the global
    aggregate (the two snapshots bracket one evaluation). *)

val snapshot : t -> t
(** A copy of the integer counters (shares the sample buffers; only
    meant as the [before] argument of {!global_add}). *)

val global_row : unit -> (string * int) list
(** The aggregate, as labelled counters: evaluations served plus the
    allocation/collection totals across the whole process. *)
