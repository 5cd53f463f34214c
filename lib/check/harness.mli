(** The differential soundness harness behind [nmlc check].

    Every program is executed several ways — the reference interpreter
    ({!Nml.Eval}), the machine on the unoptimized IR, the machine on the
    optimized IR, and the machine on the optimized IR under fault
    injection (fixed-size tiny heaps, forced collections at pseudo-random
    allocation points, freed-cell poisoning) with arena validation on —
    and all outcomes are compared.  A run stopped by a resource limit
    ({!Runtime.Machine.Out_of_memory}/[Out_of_fuel]) proves nothing and
    is accepted; a crash or a different answer where the reference
    produced a value is a soundness divergence.  After every run on
    either backend the {!Runtime.Stats} counters and the store are
    checked against the bookkeeping identities
    ([live = allocs - swept - arena_freed],
    [live + free-list length = bump pointer], ...).

    On a divergence the offending program is greedily minimized with
    {!Shrink} and reported as a {!counterexample}. *)

type fault =
  | No_fault
  | Widen_arena
      (** allocate the program's first cons site in an arena spanning the
          whole program — an unsound stack/block verdict *)
  | Misuse_dcons
      (** rewrite the first cons site to destructively reuse its own tail
          cell — an unsound reuse verdict *)

type config = {
  heap : int;  (** capacity of the fixed-size chaos heaps *)
  fuel : int;  (** step budget per run; [<= 0] means unlimited *)
  chaos : bool;  (** forced collections + freed-cell poisoning *)
  seed : int;  (** seeds program generation and the machine PRNG *)
  fault : fault;  (** deliberately break one optimizer verdict *)
}

val default : config
(** [{ heap = 24; fuel = 200_000; chaos = false; seed = 42; fault = No_fault }] *)

type outcome =
  | Value of Nml.Eval.value
  | Limit of string  (** stopped by a resource budget: proves nothing *)
  | Crash of string  (** dynamic error: divergence unless the reference crashed too *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_string : outcome -> string

type failure = { stage : string; expected : string; got : string }
type verdict = Pass | Skip of string | Fail of failure

val run_reference : config -> Nml.Surface.t -> outcome

val run_machine :
  config ->
  ?config:Runtime.Heap.config ->
  heap:int ->
  grow:bool ->
  chaos:Runtime.Machine.chaos ->
  Runtime.Ir.expr ->
  outcome * Runtime.Machine.t
(** One machine execution with arena validation on; reading the result
    back is part of the run (a dangling result is a [Crash]).  [?config]
    selects the heap organization (default {!Runtime.Heap.legacy}); the
    oracle itself runs every program on legacy {e and} generational
    configurations (tiny nursery, regions off, a seed-drawn config), so
    chaos collections also land mid-region on the generational heap.
    With chaos on, one more stage collects before every allocation, so
    every safepoint of the VM's root masks is exercised. *)

val run_vm :
  config ->
  ?config:Runtime.Heap.config ->
  heap:int ->
  grow:bool ->
  chaos:Runtime.Machine.chaos ->
  Runtime.Ir.expr ->
  outcome * Backend.Vm.t
(** The same execution on the bytecode VM (compile + run, arena
    validation on) — the oracle's third leg.  Every machine stage of
    {!check_src} is also run here, so Eval, machine and VM must agree
    under every heap configuration and chaos schedule.  A
    {!Backend.Vm.Internal} propagates: a broken backend invariant must
    abort the oracle, not masquerade as a program crash. *)

val stats_violations : Runtime.Machine.t -> string list
(** Violated bookkeeping identities of the machine's counters and
    store, empty when consistent.  One of them, [live + free-list length
    = bump pointer], catches a freed cell the allocator lost, which the
    differential comparison cannot: both backends would lose it alike. *)

val vm_stats_violations : Backend.Vm.t -> string list
(** The same identities over a VM run's counters. *)

val sabotage : fault -> Nml.Surface.t -> Runtime.Ir.expr option
(** The deliberately broken IR of a program, or [None] when the fault
    does not apply (e.g. no cons site). *)

val check_src : config -> string -> verdict
(** The full differential oracle on one program (concrete syntax). *)

val check_ir : config -> src:string -> Runtime.Ir.expr -> verdict
(** Compare the reference interpreter on [src] against the machine on a
    caller-supplied IR — the hook scratch tests use to feed the oracle a
    hand-broken transformation result. *)

type summary = { checked : int; passed : int; skipped : int }

type counterexample = {
  name : string;
  original : string;
  shrunk : string;
  failure : failure;
}

val pp_counterexample : Format.formatter -> counterexample -> unit

val builtin_corpus : (string * string) list
(** Named complete programs covering lists, pairs, trees, higher-order
    functions and the paper's running examples. *)

val check_corpus : config -> (string * string) list -> (summary, counterexample) result

val check_random : config -> count:int -> (summary, counterexample) result
(** Draws [count] programs from {!Gen.gen_any_program} (deterministic in
    [config.seed]) and runs the oracle on each; the first divergence is
    minimized and returned. *)
