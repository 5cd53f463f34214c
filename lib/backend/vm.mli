(** A compact register VM executing closure-converted bytecode.

    The third leg of the differential oracle next to the reference
    interpreter and the storage machine: same storage policy layer
    ({!Runtime.Heap}), same collection discipline (minor collections
    stop at old cells, chaos mode forces collections at deterministic
    pseudo-random points and poisons freed cells), same observable
    semantics — but flat closure environments, direct known calls, real
    tail calls, and heap primitives that honor the optimizer's verdicts
    natively ([Alloc] carries its placement, [Reuse] overwrites in
    place, arenas bump-allocate and free wholesale).

    Every allocation decision is the machine's, so the allocation
    counters ([heap_allocs], [arena_allocs], [dcons_reuses], ...) agree
    exactly.  The collection counters ([marked], [promoted], [swept],
    [major_gcs], [gc_work], ...) do not: the VM's collector roots only
    the registers live at each frame's safepoint, while the machine
    roots its whole environments, so the VM marks no more and usually
    less. *)

type value =
  | Int of int
  | Bool of bool
  | Nil
  | Leaf
  | Ptr of int
  | Pair of int
  | Tree of int
  | Clos of clos
  | Slotv of slot

and clos = {
  fn : int;
  env : value array;
  pap : value list;
  mutable cmark : bool;
  mutable hints : int list;
}

and slot = { sname : string; mutable sv : value option }

type code
(** A compiled program: one bytecode function per lambda nest plus the
    entry sequence. *)

exception Error of string  (** a program fault: the user's bug *)

exception Out_of_memory
exception Out_of_fuel

exception Internal of string  (** a backend invariant broke: our bug *)

val compile : Runtime.Ir.expr -> code
(** ANF-lower, verify, closure-convert, and emit bytecode.  Raises
    {!Internal} if the ANF verifier rejects the lowering (a backend
    bug). *)

val report : code -> Closure.report

type chaos = Runtime.Machine.chaos = {
  gc_period : int;
  poison : bool;
  chaos_seed : int;
}

val no_chaos : chaos

type t

val create :
  ?heap_size:int ->
  ?grow:bool ->
  ?check_arenas:bool ->
  ?fuel:int ->
  ?chaos:chaos ->
  ?config:Runtime.Heap.config ->
  unit ->
  t
(** Same knobs and defaults as {!Runtime.Machine.create}: 4096-cell
    heap, growth on, arena escape checking off, unlimited fuel, no
    chaos, legacy storage config. *)

val eval : t -> code -> value
(** Execute, folding this run's counters into the process-global
    telemetry even on abnormal exit. *)

val run_ir : t -> Runtime.Ir.expr -> value
(** [compile] + [eval]. *)

val read_value : t -> value -> Nml.Eval.value
(** Chase the result into an interpreter-level value (for differential
    comparison); fails on functions, dangling cells, or structures over
    a million nodes. *)

val cell_values : t -> int -> value * value * value
(** The [car], [cdr] and [lbl] values of the live cell at an address —
    the window the concrete-sharing oracle in the test harness uses to
    walk a result's cell graph (the VM-side twin of
    {!Runtime.Machine.cell_words}).
    @raise Error on a freed cell. *)

val stats : t -> Runtime.Stats.t
val live_cells : t -> int

val free_cells : t -> int
(** As {!Runtime.Machine.free_cells}. *)

val used_cells : t -> int
(** As {!Runtime.Machine.used_cells}. *)

val config : t -> Runtime.Heap.config

val pp_code : Format.formatter -> code -> unit
(** Disassembly, for [nmlc compile --dump-bytecode]. *)

val dropping_root :
  fname:string -> pc:int -> reg:int -> (unit -> 'a) -> 'a * int
(** For tests only: runs the thunk while {!compile} removes register
    [reg] from the root mask at [pc] of every function named [fname]
    (["entry"] for the entry sequence) that holds it there, and returns
    the thunk's result with the number of masks that lost the register.
    A mask missing a live register must make the chaos oracle diverge. *)

val keeping_mark_on_return : (unit -> 'a) -> 'a
(** For tests only: runs the thunk while a return leaves the minor
    collector's low-water mark where it was, so a minor collection skips
    a caller that a return has just written into.  The chaos oracle must
    diverge. *)
