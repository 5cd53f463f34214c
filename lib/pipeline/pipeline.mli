(** The staged pipeline every command runs through:

    + {e front}: parse and type, once per command ({!Nml.Front}, which
      lives in [nml] so the summary cache links nothing beyond it);
    + {e lower}: the baseline IR or the optimizer's output ({!lower});
    + {e heap}: the legacy or generational configuration, with the
      spine-liveness hints ({!heap});
    + {e execute}: the machine or the bytecode VM ({!execute}).

    Every stage after the front one takes the typed program, so no
    command reaches the optimizer, a backend or an evaluator with a
    program that does not type. *)

type lowering = Baseline | Optimized of Optimize.Transform.options

val lower : ?heap:Runtime.Heap.config -> lowering -> Nml.Infer.program -> Runtime.Ir.expr
(** With the [heap] the program will run on, the pretenure pass is on
    exactly when that heap honours pretenuring; without it, as the
    options say. *)

type policy = Legacy | Generational

val hints : Nml.Infer.program -> (string * int list) list
(** The spine-liveness hints: each definition's parameters whose spine
    the callee provably never needs past the head. *)

val heap :
  ?nursery:int -> ?regions:bool -> ?pretenure:bool -> policy -> Nml.Infer.program ->
  Runtime.Heap.config
(** The policy's configuration; the generational one carries the
    {!hints}.  [regions] and [pretenure] only switch off what the policy
    honours; [nursery] replaces its minor-collection threshold. *)

type backend = Interp | Vm

type run = {
  result : (Nml.Eval.value Lazy.t, exn) result;
      (** the value read back on demand (a dangling or functional result
          raises {!Nml.Eval.Runtime_error} when forced), or why the run
          stopped: {!Nml.Eval.Runtime_error} for a fault of the program,
          {!Runtime.Heap.Out_of_memory}, or {!Runtime.Heap.Out_of_fuel} *)
  stats : Runtime.Stats.t;
  live : int;
  free : int;  (** free-list length *)
  used : int;  (** the bump pointer *)
}

val execute :
  ?heap_size:int ->
  ?grow:bool ->
  ?check_arenas:bool ->
  ?fuel:int ->
  ?chaos:Runtime.Heap.chaos ->
  config:Runtime.Heap.config ->
  backend ->
  Runtime.Ir.expr ->
  run
(** One execution, with {!Runtime.Machine.create}'s defaults.  A broken
    backend invariant ({!Backend.Vm.Internal}) propagates. *)

val storage_row : Nml.Infer.program -> ((string * int) list, string) result
(** The optimized program on the generational heap (4096 cells, a
    million steps): its heap counters, or why the run stopped. *)

val failure : ?format:Nml.Diagnostic.format -> exn -> int * string
(** {!Nml.Front.failure} with the codes execution adds: [2] for a heap
    exhausted even after a collection, [3] for an exhausted step budget. *)
