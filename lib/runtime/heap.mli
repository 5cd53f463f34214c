(** The escape-guided cell store underneath {!Machine} and the bytecode
    VM.

    This layer owns storage, allocation and reclamation {e policy}; it
    is word-polymorphic because only a backend knows what a word means.
    Traversal (marking) stays in the backends: {!alloc} calls their
    collectors back, and they drive collections through the sweep entry
    points here.

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

type 'w arena = {
  kind : Ir.arena_kind;
  dyn_id : int;
  mutable ahead : int;  (** head of the arena's intrusive cell chain *)
  mutable acount : int;
}

(** Word shapes the policy layer must distinguish, as told by the
    machine's [kind_of]: *)
type kind =
  | Scalar  (** no references *)
  | Ptr of int  (** a direct cell reference *)
  | Funval
      (** closure-like: may capture cell references, and those captures
          can change after the write (letrec slots) — sticky-remembered *)

type 'w t

val create :
  ?heap_size:int ->
  grow:bool ->
  chaos_period:int ->
  config:config ->
  nil:'w ->
  scrub:('w cell -> unit) ->
  kind_of:('w -> kind) ->
  stats:Stats.t ->
  unit ->
  'w t
(** With [grow:false], {!alloc} raises {!Out_of_memory} where it would
    otherwise double the store; [chaos_period > 0] forces a collection
    at pseudo-random allocation points, on average one every
    [chaos_period] allocations. *)

val get : 'w t -> int -> 'w cell
val capacity : 'w t -> int
val live : 'w t -> int
val config : 'w t -> config

val used : 'w t -> int
(** The bump pointer: cells ever handed out.  Every one of them is
    either live or on the free list, so [live + free_length = used]
    between allocations. *)

val free_length : 'w t -> int
(** Cells on the free list (walked; stops past [used] on a cycle). *)

val is_generational : 'w t -> bool
(** [config.policy = Generational]. *)

val remembered_size : 'w t -> int
(** Transient + sticky remembered-set entries. *)

(** {2 Allocation} *)

exception Out_of_memory

(** What the allocator needs from the backend that owns the heap ['m]:
    its two collectors, the draw of its chaos PRNG, and the open arena
    an [Ir.alloc] target names. *)
type ('m, 'w) hooks = {
  minor : 'm -> unit;
  major : 'm -> unit;
  draw : 'm -> int;
  arena : 'm -> Ir.alloc -> 'w arena option;
}

val alloc : 'w t -> ('m, 'w) hooks -> 'm -> Ir.alloc -> 'w -> 'w -> int
(** [alloc h k m target hd tl] returns the address of a new cell holding
    [hd] and [tl], with the one allocation policy both backends share:
    under chaos ([chaos_period > 0]) a forced collection at
    pseudo-random points; the arena [k.arena] resolves (when regions are
    on) or else the old generation for a pretenured target or the
    nursery, collected first when it holds [nursery] cells; the free
    list, then the bump pointer; on an exhausted store a collection
    (minor first when the nursery is not empty), then growth or
    {!Out_of_memory} ([grow:false]).  An arena allocation never
    collects: the store grows.  The cell is registered with the
    allocation counters, and an old or arena cell goes through the
    write barrier. *)

(** {2 Write barrier} *)

val barrier : 'w t -> int -> unit
(** Record address in the remembered set if its cell is old (or
    arena-resident) and now holds young or function-like references.
    Call after initializing or mutating a non-young cell.  No-op under
    the legacy policy. *)

val iter_remembered : 'w t -> (int -> unit) -> unit
val clear_transient : 'w t -> unit

(** {2 Reclamation} *)

val free_cell : 'w t -> int -> reason:[ `Swept | `Arena ] -> unit
(** Scrub, push on the free list, maintain [live] and the
    [swept]/[arena_freed] counters.  Does not unlink from the nursery
    chain — only the sweeps below free young cells. *)

val sweep_nursery : 'w t -> unit
(** Minor sweep: walk the nursery chain only; free unmarked cells,
    promote marked ones in place (counting [promoted], and moving cells
    with function-like children to the sticky remembered set).  Ends
    with an empty nursery and a cleared transient remembered set. *)

val sweep_all : 'w t -> unit
(** Major sweep: walk the whole used prefix; free unmarked non-arena
    cells, unmark the rest.  Under the generational policy all survivors
    are promoted, the nursery chain is reset and the remembered sets are
    filtered — the generational invariant is restored wholesale. *)

val open_arena : 'w t -> kind:Ir.arena_kind -> 'w arena
val close_arena : 'w t -> 'w arena -> unit
(** Bulk reclamation: free the arena's whole chain by walking the
    intrusive links — no marking, no heap scan — and count one
    [regions_reclaimed]. *)
