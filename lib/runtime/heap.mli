(** The escape-guided cell store underneath {!Machine} and the bytecode
    VM, and the one collector both of them run.

    This layer owns storage, allocation, reclamation and collection: the
    allocator and its policies, the collections ({!collect},
    {!collect_minor}, and those {!alloc} starts) with their counters and
    pause timing, the remembered-set scan and the sweeps, the per-cell
    mark step ({!mark}), the chaos PRNG and freed-cell poisoning, the
    per-static-id arena stacks with the [--check-arenas] reachability
    walk, and the in-place [DCONS]/[DNODE] writes.  It is
    word-polymorphic because only an engine knows what a word means, so
    an engine supplies a {!tracer}: how to mark from its roots (the
    machine's root and environment stacks, the VM's frame chain under
    its root masks) and how to trace its own function-like words.  The
    recursion over words stays in the engine and calls {!mark} per cell;
    the roots each engine marks are what the three-way oracle compares.

    Two policies:

    - {e legacy}: one flat store, an intrusive free list, full mark-sweep
      — byte-for-byte the behavior (and the {!Stats} counters) of the
      original machine, just without an [int list] allocation per
      freed/reused cell;
    - {e generational}: unannotated allocations go to a nursery threaded
      through the cells' intrusive [link] field.  A minor collection
      marks from the roots {e stopping at old cells}, sweeps only the
      nursery chain, and promotes the survivors in place (a cell's
      generation is a bit, so "copying" is a flip — addresses are
      scattered immutably through OCaml-side environments and cannot
      move).  Old-to-young edges are caught by a write barrier into a
      transient remembered set; cells holding function-like words (whose
      captured environments can grow young references after the fact,
      e.g. letrec slots) go to a {e sticky} remembered set scanned by
      every minor collection.

    Arena (region/block) cells are bump-allocated onto a per-arena
    intrusive chain and freed wholesale — pointer-reset reclamation, no
    traversal — exactly as before; under the generational policy they
    count as old so that minor pause times never scale with the size of
    region-resident data. *)

type policy = Legacy | Generational

type config = {
  policy : policy;
  regions : bool;
      (** honor arena annotations; with [false] every annotated
          allocation falls back to the GC heap (coverage configuration
          for the chaos harness) *)
  pretenure : bool;
      (** honor [Ir.Pretenured] hints (generational policy only) *)
  nursery : int;  (** minor-collection threshold, in young cells *)
  liveness_hints : (string * int list) list;
      (** [(definition, 1-based parameter indices)] whose argument spine
          the callee provably never needs past the head — the
          spine-liveness analysis' [Dead]/[Head_only] verdicts
          ({!Framework.Spinelive.dead_spine_params}).  Advisory: the
          policies reclaim identically with or without them (the stats
          rows never change); a collector may use them to avoid
          scavenging provably dead spines. *)
}

val legacy : config
(** The seed machine: flat heap, full mark-sweep, regions on. *)

val generational : config
(** Nursery of 1024 cells, regions on, pretenuring on. *)

val config_name : config -> string
(** A short stable label, for harness stage names and bench rows.
    Deliberately independent of [liveness_hints]. *)

val hinted_dead_spine : config -> fname:string -> arg:int -> bool
(** Whether the hints mark the [arg]-th (1-based) parameter of [fname]
    as a dead spine. *)

type 'w cell = {
  mutable car : 'w;
  mutable cdr : 'w;
  mutable lbl : 'w;
  mutable marked : bool;
  mutable free : bool;
  mutable arena : int;  (** dynamic arena id, or -1 for the GC heap *)
  mutable old : bool;  (** generation bit; legacy cells are born old *)
  mutable link : int;
      (** intrusive chain next (-1 ends): the free list when [free], the
          nursery chain when young, the arena chain when [arena >= 0] *)
}

(** Word shapes the policy layer must distinguish, as told by the
    engine's [kind_of]: *)
type kind =
  | Scalar  (** no references *)
  | Ptr of int  (** a direct cell reference *)
  | Funval
      (** closure-like: may capture cell references, and those captures
          can change after the write (letrec slots) — sticky-remembered *)

exception Error of string
(** A fault of the running program, with the text both engines print. *)

exception Out_of_memory
(** The store is exhausted even after a collection ([grow:false]). *)

exception Out_of_fuel
(** An engine's step budget is exhausted. *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Error} with the formatted message. *)

type chaos = {
  gc_period : int;
      (** [> 0]: force a collection at pseudo-random allocation points,
          on average one every [gc_period] allocations; [0] disables *)
  poison : bool;
      (** scribble over cells as they are freed (by the sweep or at arena
          exit) and fail any read of a freed cell ({!read}) or any mark
          that reaches one, so an unsound escape verdict becomes a
          deterministic crash instead of a silent wrong answer *)
  chaos_seed : int;
      (** seed of the deterministic fault-injection PRNG; runs with equal
          seeds inject faults at identical points *)
}

val no_chaos : chaos
(** No forced collections, no poisoning: the machine of the seed. *)

(** What an engine tells the collector about its words. *)
type 'w tracer = {
  marker : stop_old:bool -> 'w -> unit;
      (** the marking function of one collection, built after the
          collection took its {!stamp}: the engine's own recursion over
          words, calling {!mark} per cell and [children] per
          function-like word; [stop_old] is a minor collection *)
  roots : stop_old:bool -> ('w -> unit) -> unit;
      (** apply the marker to every root; a minor collection may skip
          what the previous collection saw *)
  children : stamp:int -> ('w -> unit) -> 'w -> unit;
      (** [children ~stamp visit w] visits every word a function-like
          [w] holds — a closure's only when it does not carry [stamp]
          yet, and stamps it *)
}

type 'w t

val create :
  ?heap_size:int ->
  grow:bool ->
  check_arenas:bool ->
  chaos:chaos ->
  config:config ->
  nil:'w ->
  poison:'w ->
  kind_of:('w -> kind) ->
  stats:Stats.t ->
  unit ->
  'w t
(** With [grow:false], {!alloc} raises {!Out_of_memory} where it would
    otherwise double the store.  A freed cell's words become [nil], or
    [poison] under [chaos.poison].  [check_arenas] runs the reachability
    walk at every {!close_arena}.  The heap cannot collect until the
    engine has called {!set_tracer}. *)

val set_tracer : 'w t -> 'w tracer -> unit

val get : 'w t -> int -> 'w cell
val live : 'w t -> int
val config : 'w t -> config

val used : 'w t -> int
(** The bump pointer: cells ever handed out.  Every one of them is
    either live or on the free list, so [live + free_length = used]
    between allocations. *)

val free_length : 'w t -> int
(** Cells on the free list (walked; stops past [used] on a cycle). *)

val read : 'w t -> string -> int -> 'w cell
(** [read h what a] is the cell a [what] ([car], [fst], [label], ...)
    reads; under poisoning a read of a freed cell raises {!Error}. *)

(** {2 Allocation} *)

val alloc : 'w t -> Ir.alloc -> 'w -> 'w -> int
(** [alloc h target hd tl] returns the address of a new cell holding
    [hd] and [tl], with the one allocation policy both backends share:
    under chaos ([gc_period > 0]) a forced collection at pseudo-random
    points; the innermost open arena of an [Ir.Arena] target (when
    regions are on) or else the old generation for a pretenured target
    or the nursery, collected first when it holds [nursery] cells; the
    free list, then the bump pointer; on an exhausted store a collection
    (minor first when the nursery is not empty), then growth or
    {!Out_of_memory} ([grow:false]).  An arena allocation never
    collects: the store grows.  The cell is registered with the
    allocation counters, and an old or arena cell goes through the
    write barrier.
    @raise Error when the target arena is not open. *)

val alloc_node : 'w t -> Ir.alloc -> 'w -> 'w -> 'w -> int
(** [alloc_node h target l x r]: {!alloc} of [l] and [r], then the label
    [x] written through the barrier. *)

val dcons : 'w t -> int -> 'w -> 'w -> unit
val dnode : 'w t -> int -> 'w -> 'w -> 'w -> unit
(** Reuse in place: overwrite the cell's head and tail (a node's left,
    label and right) through the write barrier, counting a
    [dcons_reuses].  @raise Error on a freed cell. *)

(** {2 Collection} *)

val mark : 'w t -> stop_old:bool -> int -> 'w cell
(** The collector's step on one cell: marks it and returns it, so the
    engine goes on to its words unless the returned cell is [free]
    (a free cell's words are never references).  Returns a free cell
    when there is nothing to trace: already marked, old in a minor
    collection, or itself freed (a dangling root, which stays unmarked).
    @raise Error under poisoning on a freed cell. *)

val stamp : 'w t -> int
(** The running traversal's stamp.  Every collection and arena walk
    takes a new one, so a closure stamped with it has been traced by
    this traversal and no closure is ever unmarked; engines create
    closures with stamp [0], which no traversal takes. *)

val collect : 'w t -> unit
(** A full collection; under the generational policy this is a major
    collection, promoting every survivor. *)

val collect_minor : 'w t -> unit
(** A nursery collection under the generational policy (mark from the
    roots stopping at old cells and from the remembered sets, sweep only
    the nursery chain, promote survivors in place); a full collection
    under legacy. *)

(** {2 Arenas} *)

val open_arena : 'w t -> int -> unit
(** Push a fresh arena for a static id; a no-op when regions are off. *)

val close_arena : 'w t -> int -> roots:(('w -> unit) -> unit) -> unit
(** Pop the innermost arena of a static id and free its whole chain by
    walking the intrusive links — no marking, no heap scan — counting
    one [regions_reclaimed]; a no-op when regions are off.  With
    [check_arenas], first walk from the words [roots] visits (the
    arena body's result and every live root) and raise {!Error} if a
    cell of the arena is reachable. *)
