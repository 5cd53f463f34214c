(* The differential soundness harness.

   Each program is run several ways — reference interpreter, machine on
   the unoptimized IR, machine on the optimized IR, and machine on the
   optimized IR under fault injection (tiny fixed heaps, forced
   collections, freed-cell poisoning) with arena validation on — and the
   outcomes are compared.  A run stopped by a resource limit proves
   nothing and is accepted; a run that crashes or answers differently
   while the reference interpreter produced a value is a soundness
   divergence.  After every run on either backend the Stats counters
   and the store are checked against the bookkeeping identities,
   among them that every cell ever handed out is live or on the free
   list.

   [fault] deliberately breaks one optimizer verdict, to demonstrate
   that the oracle catches exactly this kind of bug. *)

module Ir = Runtime.Ir
module Stats = Runtime.Stats
module Eval = Nml.Eval

type fault = No_fault | Widen_arena | Misuse_dcons

let faults = [ ("none", No_fault); ("arena", Widen_arena); ("dcons", Misuse_dcons) ]

type config = {
  heap : int;  (* capacity of the fixed-size chaos heaps *)
  fuel : int;  (* step budget per run; <= 0 means unlimited *)
  chaos : bool;  (* forced collections + freed-cell poisoning *)
  seed : int;  (* seeds both program generation and the machine PRNG *)
  fault : fault;
}

let default = { heap = 24; fuel = 200_000; chaos = false; seed = 42; fault = No_fault }

type outcome = Value of Eval.value | Limit of string | Crash of string

let pp_outcome ppf = function
  | Value v -> Eval.pp_value ppf v
  | Limit msg -> Format.fprintf ppf "<resource limit: %s>" msg
  | Crash msg -> Format.fprintf ppf "<crash: %s>" msg

let outcome_to_string o = Format.asprintf "%a" pp_outcome o

type failure = { stage : string; expected : string; got : string }
type verdict = Pass | Skip of string | Fail of failure

(* ---- the ways to run one program ----------------------------------------- *)

let fuel_opt cfg = if cfg.fuel > 0 then Some cfg.fuel else None

let run_reference cfg surface =
  match Eval.run ?fuel:(fuel_opt cfg) surface with
  | v -> Value v
  | exception Eval.Out_of_fuel -> Limit "reference interpreter out of fuel"
  | exception Eval.Runtime_error msg -> Crash msg

let chaos_of cfg =
  if cfg.chaos then { Runtime.Heap.gc_period = 3; poison = true; chaos_seed = cfg.seed }
  else Runtime.Heap.no_chaos

(* One execution with arena validation on; reading the result back is
   part of the run (a dangling result is a [Crash]).  Every machine stage
   also runs on the bytecode VM, whose [Vm.Internal] is a backend bug,
   not a program outcome: the pipeline lets it propagate, so it aborts
   the oracle loudly. *)
let run_on backend cfg ?(config = Runtime.Heap.legacy) ~heap ~grow ~chaos ir =
  let r =
    Pipeline.execute ~heap_size:heap ~grow ~check_arenas:true ?fuel:(fuel_opt cfg) ~chaos
      ~config backend ir
  in
  let name = match backend with Pipeline.Interp -> "machine" | Pipeline.Vm -> "vm" in
  let outcome =
    match r.Pipeline.result with
    | Ok v -> (
        match Lazy.force v with v -> Value v | exception Eval.Runtime_error msg -> Crash msg)
    | Error (Eval.Runtime_error msg) -> Crash msg
    | Error Runtime.Heap.Out_of_memory -> Limit (name ^ " out of memory")
    | Error _ -> Limit (name ^ " out of fuel")
  in
  (outcome, r)

(* ---- invariant counters --------------------------------------------------- *)

let stats_violations { Pipeline.stats = s; live; free; used; _ } =
  let total = Stats.total_allocs s in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      (* a cell taken off the free list and never registered is lost
         for good: no sweep returns a cell already marked free *)
      ( live + free = used,
        Printf.sprintf "live (%d) + free-list length (%d) <> bump pointer (%d)" live
          free used );
      ( live = total - s.Stats.swept - s.Stats.arena_freed,
        Printf.sprintf "live (%d) <> allocs (%d) - swept (%d) - arena_freed (%d)" live
          total s.Stats.swept s.Stats.arena_freed );
      (s.Stats.swept <= s.Stats.heap_allocs, "swept more cells than were heap-allocated");
      ( s.Stats.arena_freed <= s.Stats.arena_allocs,
        "freed more arena cells than were arena-allocated" );
      (s.Stats.peak_live <= total, "peak_live exceeds total allocations");
      (live <= s.Stats.peak_live, "live cells exceed peak_live");
      (s.Stats.heap_capacity >= 1, "heap capacity vanished");
      (* generational bookkeeping: a cell is promoted at most once and
         only heap cells ever live in (or skip) the nursery *)
      ( (not s.Stats.generational)
        || s.Stats.promoted + s.Stats.pretenured <= s.Stats.heap_allocs,
        "promoted + pretenured exceed heap allocations" );
      ( (not s.Stats.generational)
        || s.Stats.minor_gcs + s.Stats.major_gcs <= s.Stats.gc_runs,
        "minor + major collections exceed gc_runs" );
    ]

(* ---- comparison ------------------------------------------------------------ *)

(* A resource-limited run proves nothing (fixed-size heaps and fuel
   budgets legitimately stop correct programs); everything else must
   match the reference interpreter's verdict. *)
let agree reference got =
  match (reference, got) with
  | _, Limit _ -> true
  | Value v, Value w -> Eval.equal_value v w
  | Crash _, Crash _ -> true
  | Value _, Crash _ | Crash _, Value _ -> false
  | Limit _, _ -> true (* unreachable: the caller skips limited references *)

(* ---- deliberate optimizer sabotage ----------------------------------------- *)

(* Rewrite the first cons site into "reuse the tail cell in place" — a
   verdict no sound reuse analysis can produce, since the tail is live
   inside the very result being built. *)
let rec break_first_cons e =
  let open Ir in
  match e with
  | Prim Nml.Ast.Cons | ConsAt _ ->
      ( Lam ("!h", Lam ("!t", App (App (App (Dcons, Var "!t"), Var "!h"), Var "!t"))),
        true )
  | Const _ | Prim _ | NodeAt _ | Dcons | Dnode | Var _ -> (e, false)
  | App (f, a) ->
      let f', hit = break_first_cons f in
      if hit then (App (f', a), true)
      else
        let a', hit = break_first_cons a in
        (App (f, a'), hit)
  | Lam (x, b) ->
      let b', hit = break_first_cons b in
      (Lam (x, b'), hit)
  | If (c, t, f) ->
      let c', hit = break_first_cons c in
      if hit then (If (c', t, f), true)
      else
        let t', hit = break_first_cons t in
        if hit then (If (c, t', f), true)
        else
          let f', hit = break_first_cons f in
          (If (c, t, f'), hit)
  | Letrec (bs, body) ->
      let rec go acc = function
        | [] -> (List.rev acc, false)
        | (x, rhs) :: rest ->
            let rhs', hit = break_first_cons rhs in
            if hit then (List.rev_append acc ((x, rhs') :: rest), true)
            else go ((x, rhs) :: acc) rest
      in
      let bs', hit = go [] bs in
      if hit then (Letrec (bs', body), true)
      else
        let body', hit = break_first_cons body in
        (Letrec (bs, body'), hit)
  | WithArena (k, i, b) ->
      let b', hit = break_first_cons b in
      (WithArena (k, i, b'), hit)

let sabotage fault surface =
  let ir = Ir.of_program surface in
  match fault with
  | No_fault -> None
  | Widen_arena ->
      (* pretend the analysis proved the first cons site local to the
         whole program: any cell of it reaching the result escapes *)
      Some
        (Ir.WithArena
           ( Ir.Region,
             997,
             Ir.map_conses (fun i -> if i = 0 then Ir.Arena 997 else Ir.Heap) ir ))
  | Misuse_dcons ->
      let ir', hit = break_first_cons ir in
      if hit then Some ir' else None

(* ---- the per-program oracle ------------------------------------------------ *)

(* stage name, IR, heap capacity, growth, chaos, heap configuration; both
   optimized IRs come from the one typed program *)
let machine_stages cfg (typed : Nml.Infer.program) =
  let surface = typed.Nml.Infer.surface in
  let leg = Runtime.Heap.legacy in
  let gen = Runtime.Heap.generational in
  let baseline = Pipeline.lower Pipeline.Baseline typed in
  let optimized_on heap =
    Pipeline.lower ~heap (Pipeline.Optimized Optimize.Transform.all) typed
  in
  let optimized = optimized_on leg in
  let pretenured = optimized_on gen in
  let chaos = chaos_of cfg in
  let tiny = max 2 cfg.heap in
  (* a seeded draw over the heap-configuration space, so repeated chaos
     runs sample different nursery sizes and region/pretenure toggles
     while any divergence stays reproducible from the seed *)
  let drawn =
    let st = Random.State.make [| cfg.seed; 0x9e3779b9 |] in
    {
      gen with
      Runtime.Heap.regions = Random.State.bool st;
      pretenure = Random.State.bool st;
      nursery = 1 + Random.State.int st 16;
    }
  in
  [
    ("baseline machine", baseline, 4096, true, Runtime.Heap.no_chaos, leg);
    ("optimized machine", optimized, 4096, true, Runtime.Heap.no_chaos, leg);
    ("optimized, fixed heap", optimized, tiny, false, chaos, leg);
    ("optimized, tiny fixed heap", optimized, max 2 (tiny / 4), false, chaos, leg);
    ( "optimized, growing heap under pressure",
      optimized,
      max 2 (tiny / 8),
      true,
      chaos,
      leg );
    (* the same optimized program on every generational configuration:
       forced chaos collections now also land mid-region, while the
       tiny-nursery stage drives promotion on every program *)
    ("optimized, generational heap", pretenured, 4096, true, chaos, gen);
    ( "optimized, generational tiny nursery",
      pretenured,
      4096,
      true,
      chaos,
      { gen with Runtime.Heap.nursery = 2 } );
    ( "optimized, generational no regions",
      pretenured,
      4096,
      true,
      chaos,
      { gen with Runtime.Heap.regions = false } );
    ("optimized, generational drawn config", pretenured, 4096, true, chaos, drawn);
    ( "optimized, generational under pressure",
      pretenured,
      max 2 (tiny / 4),
      true,
      chaos,
      { gen with Runtime.Heap.nursery = 3 } );
    (* the unoptimized program on the generational heap, collecting only
       when the nursery fills: the optimizer moves allocations into
       blocks and arenas, so a minor collector's root fault can show only
       on code it has not touched, and forced chaos collections can land
       where they hide it *)
    ("baseline, generational heap", baseline, 4096, true, Runtime.Heap.no_chaos, gen);
    ( "baseline, generational tiny nursery",
      baseline,
      4096,
      true,
      Runtime.Heap.no_chaos,
      { gen with Runtime.Heap.nursery = 2 } );
  ]
  (* a full collection before every allocation, so each of the VM's
     root masks is exercised wherever a frame can stop *)
  @ (if cfg.chaos then
       [
         ( "optimized, collection at every allocation",
           optimized,
           tiny,
           true,
           { chaos with Runtime.Heap.gc_period = 1 },
           leg );
       ]
     else [])
  @
  match sabotage cfg.fault surface with
  | None -> []
  | Some ir -> [ ("sabotaged", ir, tiny, true, { chaos with Runtime.Heap.poison = true }, leg) ]

let check_typed cfg (typed : Nml.Infer.program) =
  match run_reference cfg typed.Nml.Infer.surface with
  | Limit msg -> Skip msg
  | Value (Eval.Vclos _ | Eval.Vprim _) ->
      (* a functional result cannot be read out of the store, so there is
         nothing to compare *)
      Skip "the result is a function"
  | reference -> (
      let expected = outcome_to_string reference in
      match machine_stages cfg typed with
      | exception e -> Fail { stage = "transform"; expected; got = Printexc.to_string e }
      | stages ->
          let run backend (leg, stats) (stage, ir, heap, grow, chaos, config) k =
            let outcome, r = run_on backend cfg ~config ~heap ~grow ~chaos ir in
            if not (agree reference outcome) then
              Fail { stage = stage ^ leg; expected; got = outcome_to_string outcome }
            else
              match stats_violations r with
              | [] -> k ()
              | v :: _ ->
                  Fail
                    {
                      stage = stage ^ stats;
                      expected = "consistent invariant counters";
                      got = v;
                    }
          in
          (* every stage on the machine, then on the bytecode VM: the
             third differential leg *)
          List.fold_right
            (fun stage k () ->
              run Pipeline.Interp ("", " (stats)") stage (fun () ->
                  run Pipeline.Vm (" (vm)", " (vm stats)") stage k))
            stages
            (fun () -> Pass)
            ())

let check_src cfg src =
  match Nml.Front.of_string ~file:"<generated>" src with
  | exception e when Nml.Front.rejects e -> Skip (Printexc.to_string e)
  | typed -> check_typed cfg typed

let check_ir cfg ~src ir =
  match run_reference cfg (Nml.Surface.of_string src) with
  | Limit msg -> Skip msg
  | Value (Eval.Vclos _ | Eval.Vprim _) -> Skip "the result is a function"
  | reference -> (
      let expected = outcome_to_string reference in
      let outcome, r =
        run_on Pipeline.Interp cfg ~heap:4096 ~grow:true ~chaos:(chaos_of cfg) ir
      in
      if not (agree reference outcome) then
        Fail { stage = "supplied ir"; expected; got = outcome_to_string outcome }
      else
        match stats_violations r with
        | [] -> Pass
        | v :: _ ->
            Fail
              {
                stage = "supplied ir (stats)";
                expected = "consistent invariant counters";
                got = v;
              })

(* ---- corpus and random search ---------------------------------------------- *)

type summary = { checked : int; passed : int; skipped : int }

type counterexample = {
  name : string;
  original : string;
  shrunk : string;
  failure : failure;
}

let pp_counterexample ppf c =
  Format.fprintf ppf
    "@[<v 0>soundness divergence in %s, stage %s@,\
    \  expected: %s@,\
    \  got:      %s@,\
     counterexample (shrunk):@,\
    \  %s@,\
     original:@,\
    \  %s@]"
    c.name c.failure.stage c.failure.expected c.failure.got c.shrunk c.original

(* Candidates run under a step budget: the run's own, or, when that is
   unlimited, four times the steps the original takes on the baseline
   machine.  A candidate that lost its base case then ends as a resource
   limit, which the shrinker rejects, instead of running forever. *)
let candidate_config cfg src =
  if cfg.fuel > 0 then cfg
  else
    let ir = Ir.of_program (Nml.Surface.of_string src) in
    let _, r = run_on Pipeline.Interp cfg ~heap:4096 ~grow:true ~chaos:Runtime.Heap.no_chaos ir in
    { cfg with fuel = (4 * r.Pipeline.stats.Stats.steps) + 1000 }

let shrink_failing cfg src failure =
  (* a candidate must reproduce the divergence at the same stage, so the
     minimizer cannot drift into an unrelated failure class *)
  let cfg = candidate_config cfg src in
  let still_failing s =
    match check_src cfg s with
    | Fail f -> String.equal f.stage failure.stage
    | Pass | Skip _ -> false
  in
  let shrunk = Shrink.minimize ~still_failing src in
  let failure = match check_src cfg shrunk with Fail f -> f | _ -> failure in
  (shrunk, failure)

let builtin_corpus =
  let open Nml.Examples in
  [
    ("partition-sort", partition_sort_program);
    ("map-pair", map_pair_program);
    ("reverse", rev_program);
    ("isort", wrap [ insert_def; isort_def ] "isort [9, 3, 7, 1, 8, 2]");
    ("concat", wrap [ append_def; concat_def ] "concat [[1], [2, 3], [], [4]]");
    ("create-list", wrap [ create_list_def ] "create_list 12");
    ( "filter-member",
      wrap [ filter_def; member_def ] "filter (fun n -> member n [1, 2, 3]) [3, 1, 4, 1, 5]"
    );
    ( "take-drop",
      wrap [ take_def; drop_def ] "cons (take 2 [1, 2, 3, 4]) (cons (drop 2 [1, 2, 3, 4]) nil)"
    );
    ("foldr", wrap [ foldr_def ] "foldr (fun a b -> cons (a * 2) b) nil [1, 2, 3]");
    ("zip", wrap [ zip_def ] "zip [1, 2, 3] [4, 5, 6]");
    ("swap", wrap [ swap_def ] "swap (mkpair [1] [2])");
    ("assoc", wrap [ assoc_def ] "assoc 0 2 [mkpair 1 10, mkpair 2 20]");
    ("bst", wrap [ tinsert_def; tsum_def ] "tsum (tinsert 4 (tinsert 9 (tinsert 1 leaf)))");
    ( "mirror",
      wrap [ tinsert_def; mirror_def; tsum_def ] "tsum (mirror (tinsert 4 (tinsert 9 leaf)))"
    );
    ( "tmap",
      wrap [ tmap_def; tinsert_def; tsum_def ]
        "tsum (tmap (fun n -> n + 1) (tinsert 2 (tinsert 5 leaf)))" );
    ( "flatten",
      wrap [ append_def; flatten_def; tinsert_def ]
        "flatten (tinsert 3 (tinsert 1 (tinsert 2 leaf)))" );
  ]

let check_corpus cfg corpus =
  let passed = ref 0 and skipped = ref 0 in
  let rec go = function
    | [] -> Ok { checked = List.length corpus; passed = !passed; skipped = !skipped }
    | (name, src) :: rest -> (
        match check_typed cfg (Nml.Front.of_string ~file:name src) with
        | Pass ->
            incr passed;
            go rest
        | Skip _ ->
            incr skipped;
            go rest
        | Fail failure ->
            let shrunk, failure = shrink_failing cfg src failure in
            Error { name; original = src; shrunk; failure })
  in
  go corpus

let check_random cfg ~count =
  let rand = Random.State.make [| cfg.seed |] in
  let passed = ref 0 and skipped = ref 0 in
  let rec go i =
    if i >= count then Ok { checked = count; passed = !passed; skipped = !skipped }
    else
      let src = QCheck.Gen.generate1 ~rand Gen.gen_any_program in
      match check_src cfg src with
      | Pass ->
          incr passed;
          go (i + 1)
      | Skip _ ->
          incr skipped;
          go (i + 1)
      | Fail failure ->
          let shrunk, failure = shrink_failing cfg src failure in
          Error
            {
              name = Printf.sprintf "generated program %d (seed %d)" i cfg.seed;
              original = src;
              shrunk;
              failure;
            }
  in
  go 0
