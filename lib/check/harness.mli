(** The differential soundness harness behind [nmlc check].

    Every program is executed several ways — the reference interpreter
    ({!Nml.Eval}), the machine on the unoptimized IR, the machine on the
    optimized IR, and the machine on the optimized IR under fault
    injection (fixed-size tiny heaps, forced collections at pseudo-random
    allocation points, freed-cell poisoning) with arena validation on —
    and all outcomes are compared.  A run stopped by a resource limit
    ({!Runtime.Heap.Out_of_memory}/{!Runtime.Heap.Out_of_fuel}) proves nothing and
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

val faults : (string * fault) list
(** The faults by their command-line names: [none], [arena], [dcons]. *)

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

val sabotage : fault -> Nml.Surface.t -> Runtime.Ir.expr option
(** The deliberately broken IR of a program, or [None] when the fault
    does not apply (e.g. no cons site). *)

val check_src : config -> string -> verdict
(** The full differential oracle on one program (concrete syntax), typed
    once: the reference interpreter, then every stage on the machine and
    on the bytecode VM (each with arena validation on), under the legacy
    heap and every generational configuration (tiny nursery, regions
    off, a seed-drawn config), with chaos collections when
    [config.chaos]; with chaos on, one more stage collects before every
    allocation, so every safepoint of the VM's root masks is exercised.
    Both optimized IRs are lowered from the one typed program.  A
    program the front stage rejects (LEX001, PARSE001, TYPE001) is a
    [Skip]. *)

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
(** [(name, source)] programs, each typed once with [name] labelling its
    locations.  A corpus program is meant to be valid: a front-end
    rejection propagates ({!Nml.Front.rejects}) instead of being
    skipped. *)

val check_random : config -> count:int -> (summary, counterexample) result
(** Draws [count] programs from {!Gen.gen_any_program} (deterministic in
    [config.seed]) and runs the oracle on each; the first divergence is
    minimized and returned. *)
