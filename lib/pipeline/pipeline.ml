module T = Optimize.Transform
module Heap = Runtime.Heap
module M = Runtime.Machine
module V = Backend.Vm

type lowering = Baseline | Optimized of T.options

let lower ?heap lowering (typed : Nml.Infer.program) =
  match lowering with
  | Baseline -> Runtime.Ir.of_program typed.Nml.Infer.surface
  | Optimized options ->
      let pretenure =
        match heap with Some h -> h.Heap.pretenure | None -> options.T.pretenure
      in
      (T.optimize ~options:{ options with T.pretenure } typed).T.ir

type policy = Legacy | Generational

let hints typed = Framework.Spinelive.(dead_spine_params (Solver.make typed))

let heap ?nursery ?(regions = true) ?(pretenure = true) policy typed =
  let base =
    match policy with
    | Legacy -> Heap.legacy
    | Generational -> { Heap.generational with Heap.liveness_hints = hints typed }
  in
  {
    base with
    Heap.regions = base.Heap.regions && regions;
    pretenure = base.Heap.pretenure && pretenure;
    nursery = (match nursery with Some n -> max 1 n | None -> base.Heap.nursery);
  }

type backend = Interp | Vm

type run = {
  result : (Nml.Eval.value Lazy.t, exn) result;
  stats : Runtime.Stats.t;
  live : int;
  free : int;
  used : int;
}

(* a fault of the program reads the same whichever backend found it *)
let program_fault f =
  try f () with Heap.Error msg -> raise (Nml.Eval.Runtime_error msg)

let execute ?heap_size ?grow ?check_arenas ?fuel ?chaos ~config backend ir =
  let finish eval read stats ~live ~free ~used =
    let result =
      match program_fault eval with
      | w -> Ok (lazy (program_fault (fun () -> read w)))
      | exception
          ((Nml.Eval.Runtime_error _ | Heap.Out_of_memory | Heap.Out_of_fuel) as e) -> Error e
    in
    { result; stats; live = live (); free = free (); used = used () }
  in
  match backend with
  | Interp ->
      let m = M.create ?heap_size ?grow ?check_arenas ?fuel ?chaos ~config () in
      finish (fun () -> M.eval m ir) (M.read_value m) (M.stats m)
        ~live:(fun () -> M.live_cells m) ~free:(fun () -> M.free_cells m)
        ~used:(fun () -> M.used_cells m)
  | Vm ->
      let m = V.create ?heap_size ?grow ?check_arenas ?fuel ?chaos ~config () in
      finish (fun () -> V.eval m (V.compile ir)) (V.read_value m) (V.stats m)
        ~live:(fun () -> V.live_cells m) ~free:(fun () -> V.free_cells m)
        ~used:(fun () -> V.used_cells m)

(* Deterministic: the machine is exact and the pause rows count cells
   touched, never wall clock. *)
let storage_row typed =
  let config = heap Generational typed in
  let ir = lower ~heap:config (Optimized T.all) typed in
  let r = execute ~heap_size:4096 ~fuel:1_000_000 ~config Interp ir in
  match r.result with
  | Ok _ -> Ok (Runtime.Stats.to_row r.stats)
  | Error (Nml.Eval.Runtime_error msg) -> Error msg
  | Error Heap.Out_of_memory -> Error "storage exhausted"
  | Error _ -> Error "step budget exhausted"

let failure ?format =
  Nml.Front.failure ?format ~more:(function
    | Heap.Out_of_memory ->
        Some
          ( 2,
            "error: out of memory: the cell store is exhausted even after a collection \
             (raise --heap, or drop --no-grow)\n" )
    | Heap.Out_of_fuel | Nml.Eval.Out_of_fuel ->
        Some (3, "error: out of fuel: the step budget is exhausted (raise --fuel)\n")
    | _ -> None)
