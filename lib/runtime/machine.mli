(** A storage simulator for [nml]: cons cells live in an addressed store
    with free-list allocation and mark-sweep collection, and the three
    optimizations of the paper are executable —

    - {e stack allocation} and {e block allocation/reclamation} via
      arenas ([Ir.WithArena]): cells allocated into an arena are ignored
      by the sweep and freed wholesale, without traversal, when the arena
      scope exits;
    - {e in-place reuse} via [Ir.Dcons], which overwrites an existing
      cell instead of allocating.

    The machine is deliberately simple — an interpreter over the IR
    resolved once per {!eval}, with an explicit shadow stack for GC roots
    (a minor collection rescans only the entries pushed or popped down
    to since the previous collection) — because the paper's claims are
    about {e counts} (cells allocated, cells the collector must touch,
    reclamation without traversal), which {!Stats} captures exactly.
    Resolution turns every variable into a frame address (frames up,
    slot).  A call links one frame holding its argument to the
    closure's captured chain, and a [letrec] one frame for its group,
    so a call costs the same however many names are in scope.  A
    binding that an inner binder shadows stays on the chain but is not
    a root: each frame keeps its binder's static list of shadowed
    positions, which the collector and the arena check skip, so a
    collection marks exactly the visible bindings.  Every saturated
    primitive, pair, cons, node, [DCONS] or [DNODE] is one node that
    builds no partial application, and a nest of applications of
    anything else is one call, which applies a closure whose body is
    the next lambda of its nest without evaluating that body; each
    ticks and roots its operands as the applications it replaces did.

    Optionally ([~check_arenas:true]) the machine validates, at every
    arena exit, that no cell of the arena is reachable from the arena
    body's result or any live root — executing the safety obligation
    that the escape analysis discharges statically. *)

type t

type word =
  | Wint of int
  | Wbool of bool
  | Wnil
  | Wptr of int  (** address of a cons cell *)
  | Wpair of int  (** address of a pair cell (same store) *)
  | Wleaf
  | Wtree of int  (** address of a tree node (car=left, cdr=right + label) *)
  | Wclos of closure
  | Wprim of Nml.Ast.prim * word list
  | Wcons_at of Ir.alloc * word list  (** partially applied annotated cons *)
  | Wnode_at of Ir.alloc * word list  (** partially applied annotated node *)
  | Wdcons of word list  (** partially applied destructive cons *)
  | Wdnode of word list  (** partially applied destructive node *)

and closure

exception Error of string
exception Out_of_memory
exception Out_of_fuel

type chaos = {
  gc_period : int;
      (** [> 0]: force a collection at pseudo-random allocation points,
          on average one every [gc_period] allocations; [0] disables *)
  poison : bool;
      (** scribble over cells as they are freed (by the sweep or at arena
          exit) and fail any [car]/[cdr]/[fst]/[snd]/[label]/[left]/
          [right] read of a freed cell, so an unsound escape verdict
          becomes a deterministic crash instead of a silent wrong answer *)
  chaos_seed : int;
      (** seed of the machine's deterministic fault-injection PRNG; runs
          with equal seeds inject faults at identical points *)
}

val no_chaos : chaos
(** No forced collections, no poisoning: the machine of the seed. *)

val create :
  ?heap_size:int ->
  ?grow:bool ->
  ?check_arenas:bool ->
  ?fuel:int ->
  ?chaos:chaos ->
  ?config:Heap.config ->
  unit ->
  t
(** [heap_size] is the cell-store capacity (default 4096).  With
    [grow:false] the store never grows: exhausting it after a collection
    raises {!Out_of_memory} (default [grow:true], doubling).
    [check_arenas] enables the arena-safety validation (default false).
    [fuel] bounds evaluation steps.  [chaos] (default {!no_chaos})
    injects faults — forced collections and freed-cell poisoning — for
    the soundness harness ({!Check.Harness}).  [config] selects the
    storage policy (default {!Heap.legacy}, the seed machine;
    {!Heap.generational} adds the nursery, promotion, pretenuring and
    the pause-distribution counters). *)

val stats : t -> Stats.t

val config : t -> Heap.config
(** The storage configuration the machine was created with. *)

val live_cells : t -> int
(** Currently live (allocated, unfreed) cells. *)

val free_cells : t -> int
(** Cells on the store's free list. *)

val used_cells : t -> int
(** Cells ever handed out (the bump pointer): after a run,
    [live_cells + free_cells = used_cells], or a freed cell was lost. *)

val eval : t -> Ir.expr -> word
(** Evaluates a closed expression.
    @raise Error on dynamic type errors (cannot happen for well-typed
    programs), {!Out_of_memory}, {!Out_of_fuel}. *)

val run : t -> Nml.Surface.t -> word
(** Converts with {!Ir.of_program} and evaluates. *)

val read_value : t -> word -> Nml.Eval.value
(** Reads a first-order result out of the store as an interpreter value
    (for differential testing against {!Nml.Eval}).
    @raise Error on closures. *)

val cell_words : t -> int -> word * word * word
(** The [car], [cdr] and [lbl] words of the live cell at an address —
    the window the concrete-sharing oracle in the test harness uses to
    walk a result's cell graph and count actually-shared cells.
    @raise Error on a freed cell. *)

val collect : t -> unit
(** Forces a full garbage collection (normally triggered by allocation);
    under the generational policy this is a major collection, promoting
    every survivor. *)

val collect_minor : t -> unit
(** Forces a nursery collection under the generational policy (mark from
    the roots stopping at old cells, sweep only the nursery chain,
    promote survivors in place); a full collection under legacy. *)

val pp_word : t -> Format.formatter -> word -> unit
