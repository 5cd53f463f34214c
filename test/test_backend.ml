(* Tests for the ANF + closure-conversion middle-end and the bytecode
   VM: the three-way differential oracle (Eval / machine / VM) over the
   builtin corpus and seeded random programs with and without chaos, the
   ANF verifier as a property over generated programs, known-call and
   closure-conversion unit checks on the report counters, exact
   agreement of the storage counters between machine and VM on optimized
   IR, the VM's resource-limit exceptions, its fault messages against the
   machine's, and its exact one-step-per-instruction accounting. *)

module H = Check.Harness
module Anf = Backend.Anf
module Vm = Backend.Vm
module Ir = Runtime.Ir
module T = Optimize.Transform
module M = Runtime.Machine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let surface src = Nml.Surface.of_string src
let baseline_ir src = Ir.of_program (surface src)
let opt_ir src = (T.optimize ~options:T.all (surface src)).T.ir
let pretenured_ir src =
  (T.optimize ~options:{ T.all with T.pretenure = true } (surface src)).T.ir

let vm_run ?(heap = 4096) ?(grow = true) ?(chaos = Vm.no_chaos) ?fuel
    ?(config = Runtime.Heap.legacy) ir =
  let m = Vm.create ~heap_size:heap ~grow ~check_arenas:true ?fuel ~chaos ~config () in
  let v = Vm.eval m (Vm.compile ir) in
  (Vm.read_value m v, m)

let machine_run ?(heap = 4096) ?(grow = true) ?(chaos = M.no_chaos) ?fuel
    ?(config = Runtime.Heap.legacy) ir =
  let m = M.create ~heap_size:heap ~grow ~check_arenas:true ?fuel ~chaos ~config () in
  let w = M.eval m ir in
  (M.read_value m w, m)

let fail_counterexample c =
  Alcotest.failf "unexpected divergence: %a" H.pp_counterexample c

let chaos_cfg = { H.default with H.chaos = true }

(* ---- three-way differential: Eval = machine = VM ---------------------------- *)

(* the witness of the minor collectors' inclusive mark: [xs]'s slot is
   filled in the environment the right-hand side's last return pops back
   to, after the last collection, and a collection that skips that
   environment frees the young head of [xs] (a sum of 2525800 instead of
   6502500) *)
let deep_witness =
  "letrec create_list n = if n = 0 then nil else cons n (create_list (n - 1)); sum l \
   = if null l then 0 else car l + sum (cdr l) in letrec xs = create_list 3000 in sum \
   (create_list 2000) + sum xs"

(* the H1 stream and H2 sort pipelines of the heap experiments, sized to
   collect on the generational 2048-cell heap, full-size H2 and
   partition sorts that exhaust it, and the unoptimized deep witness
   above, with the IR each runs, the VM's [marked] and [promoted] counts
   and whether the VM marks no more cells than the machine: the two
   collect at different points, and on the partition sort the VM's 24
   collections mark 5 cells more than the machine's 25 *)
let pipelines =
  let open Nml.Examples in
  [
    ( "h1-stream",
      pretenured_ir,
      wrap
        [ create_list_def; filter_def; map_def; sum_def ]
        "sum (map (fun x -> x + 1) (filter (fun x -> x < 2000) (create_list 4000)))",
      5120,
      3072,
      true );
    ( "h2-sort",
      pretenured_ir,
      wrap
        [ create_list_def; filter_def; map_def; insert_def; isort_def; sum_def ]
        "sum (isort (map (fun x -> x * x) (filter (fun x -> x < 200) (create_list \
         400))))",
      1360,
      1360,
      true );
    ( "h2-sort-full",
      pretenured_ir,
      wrap
        [ create_list_def; filter_def; map_def; insert_def; isort_def; sum_def ]
        "sum (isort (map (fun x -> x * x) (filter (fun x -> x < 1000) (create_list \
         2000))))",
      264754,
      200522,
      true );
    ( "partition-sort",
      pretenured_ir,
      wrap
        [ create_list_def; map_def; append_def; split_def; ps_def ]
        "ps (map (fun x -> x * 7919 mod 1009) (create_list 1000))",
      23714,
      7519,
      false );
    ("deep-witness", baseline_ir, deep_witness, 10240, 4096, true);
  ]

let differential_tests =
  [
    (* [check_src] runs the VM as a third leg on every machine stage
       (legacy, generational, chaos, sabotage baseline), so a green
       corpus run here is a three-way agreement claim *)
    Alcotest.test_case "corpus-three-way" `Quick (fun () ->
        match H.check_corpus H.default H.builtin_corpus with
        | Ok s -> checki "all passed" s.H.checked s.H.passed
        | Error c -> fail_counterexample c);
    Alcotest.test_case "corpus-three-way-under-chaos" `Quick (fun () ->
        match H.check_corpus chaos_cfg H.builtin_corpus with
        | Ok s -> checki "all passed" s.H.checked s.H.passed
        | Error c -> fail_counterexample c);
    (* map' holds its spine cell in r1 across the recursive call at pc 6
       and reuses it in place when the call returns: with r1 missing
       from that mask, the collections the callee's allocations trigger
       free the cell, and the oracle must catch it *)
    Alcotest.test_case "dropped-root-is-caught-under-chaos" `Quick (fun () ->
        let result, dropped =
          Vm.dropping_root ~fname:"map'" ~pc:6 ~reg:1 (fun () ->
              H.check_corpus chaos_cfg H.builtin_corpus)
        in
        checkb "the mask held the register" true (dropped > 0);
        match result with
        | Ok _ -> Alcotest.fail "the oracle missed a mask without a live register"
        | Error c ->
            Alcotest.(check string) "program" "map-pair" c.H.name;
            checkb "a VM stage diverges" true
              (String.ends_with ~suffix:"(vm)" c.H.failure.H.stage));
    (* a return that leaves the minor collector's mark above its caller
       lets a collection skip a frame the return has just written into *)
    Alcotest.test_case "unlowered-return-mark-is-caught-under-chaos" `Quick (fun () ->
        match
          Vm.keeping_mark_on_return (fun () -> H.check_corpus chaos_cfg H.builtin_corpus)
        with
        | Ok _ -> Alcotest.fail "the oracle missed a return that kept the mark"
        | Error c ->
            Alcotest.(check string) "program" "partition-sort" c.H.name;
            checkb "a VM stage diverges" true
              (String.ends_with ~suffix:"(vm)" c.H.failure.H.stage));
    Alcotest.test_case "deep-witness-under-chaos" `Quick (fun () ->
        match
          H.check_corpus { chaos_cfg with H.fuel = 0 } [ ("deep-witness", deep_witness) ]
        with
        | Ok s -> checki "passed" 1 s.H.passed
        | Error c -> fail_counterexample c);
    Alcotest.test_case "random-40-three-way-under-chaos" `Quick (fun () ->
        match H.check_random { chaos_cfg with H.seed = 2026 } ~count:40 with
        | Ok s -> checki "all checked" 40 s.H.checked
        | Error c -> fail_counterexample c);
    (* direct agreement, independent of the harness plumbing: reference
       value vs. VM value on both the baseline and the optimized IR *)
    Alcotest.test_case "corpus-vm-matches-reference" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            match H.run_reference H.default (surface src) with
            | H.Value expect ->
                List.iter
                  (fun ir ->
                    let v, _ = vm_run ir in
                    checkb (name ^ " agrees") true
                      (Nml.Eval.equal_value expect v))
                  [ baseline_ir src; opt_ir src ]
            | H.Limit _ -> ()
            | H.Crash m -> Alcotest.failf "%s: reference crashed: %s" name m)
          H.builtin_corpus);
    (* the VM honors the optimizer's annotations natively: on the same
       optimized IR, machine and VM make the identical allocation
       decisions; on the pipelines, which collect, the VM's precise
       roots mark no more than the machine's environments where the
       entry says so, and every
       cell below the bump pointer is live or on the free list (one
       taken from the free list and dropped is never swept back) *)
    Alcotest.test_case "corpus-vm-storage-counters-match-machine" `Quick
      (fun () ->
        let same_allocations name ms vs =
          let open Runtime.Stats in
          checki (name ^ " heap_allocs") ms.heap_allocs vs.heap_allocs;
          checki (name ^ " arena_allocs") ms.arena_allocs vs.arena_allocs;
          checki (name ^ " dcons_reuses") ms.dcons_reuses vs.dcons_reuses;
          checki (name ^ " pretenured") ms.pretenured vs.pretenured;
          checki (name ^ " regions_reclaimed") ms.regions_reclaimed
            vs.regions_reclaimed
        in
        List.iter
          (fun (name, src) ->
            let ir = opt_ir src in
            let _, m = machine_run ir in
            let _, v = vm_run ir in
            same_allocations name (M.stats m) (Vm.stats v))
          H.builtin_corpus;
        let config = Runtime.Heap.generational in
        List.iter
          (fun (name, to_ir, src, marked, promoted, fewer_marks) ->
            let expect =
              match H.run_reference { H.default with H.fuel = 0 } (surface src) with
              | H.Value v -> v
              | H.Limit msg | H.Crash msg -> Alcotest.failf "%s: reference: %s" name msg
            in
            let ir = to_ir src in
            let mv, m = machine_run ~heap:2048 ~config ir in
            let vv, v = vm_run ~heap:2048 ~config ir in
            checkb (name ^ " machine value") true (Nml.Eval.equal_value expect mv);
            checkb (name ^ " vm value") true (Nml.Eval.equal_value expect vv);
            let ms = M.stats m and vs = Vm.stats v in
            same_allocations name ms vs;
            checkb (name ^ " collects") true (vs.Runtime.Stats.gc_runs > 0);
            checki (name ^ " vm marked") marked vs.Runtime.Stats.marked;
            checki (name ^ " vm promoted") promoted vs.Runtime.Stats.promoted;
            if fewer_marks then
              checkb (name ^ " vm marks no more than the machine") true
                (vs.Runtime.Stats.marked <= ms.Runtime.Stats.marked);
            checki (name ^ " machine live + free")
              (M.used_cells m) (M.live_cells m + M.free_cells m);
            checki (name ^ " vm live + free")
              (Vm.used_cells v) (Vm.live_cells v + Vm.free_cells v))
          pipelines);
  ]

(* ---- the ANF verifier as a property ----------------------------------------- *)

let anf_verifies src =
  match surface src with
  | exception _ -> true (* unparseable: nothing to lower *)
  | s -> (
      match
        (Ir.of_program s, (T.optimize ~options:T.all s).T.ir)
      with
      | exception _ -> true (* ill-typed: the front end rejects it first *)
      | b, o ->
          List.for_all
            (fun ir ->
              match Anf.verify (Anf.lower ir) with
              | Ok () -> true
              | Error m ->
                  QCheck.Test.fail_reportf "lowering of %s broke ANF: %s" src m)
            [ b; o ])

let anf_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"lowered-programs-always-verify"
         (QCheck.make Gen.gen_any_program ~print:Fun.id)
         anf_verifies);
    Alcotest.test_case "eta-expanded-constructor-keeps-source-arity" `Quick
      (fun () ->
        (* the rhs is a 3-lambda nest whose body eta-expands [cons] with
           [$p] lambdas; grouping must stop at the user arity 3, and the
           program must still run the trailing applications generically *)
        let src = "letrec f x y z = cons in (f 1 2 3) 4 nil" in
        let ir = baseline_ir src in
        (match Anf.verify (Anf.lower ir) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "verifier rejected the lowering: %s" m);
        let v, _ = vm_run ir in
        match H.run_reference H.default (surface src) with
        | H.Value expect ->
            checkb "agrees" true (Nml.Eval.equal_value expect v)
        | o -> Alcotest.failf "reference: %s" (H.outcome_to_string o));
    Alcotest.test_case "verifier-rejects-unsaturated-prim" `Quick (fun () ->
        let bad =
          Anf.Aret (Anf.Cprim (Nml.Ast.Add, [ Anf.Aconst (Nml.Ast.Cint 1) ]))
        in
        checkb "rejected" true (Result.is_error (Anf.verify bad)));
    Alcotest.test_case "verifier-rejects-unbound-variable" `Quick (fun () ->
        checkb "rejected" true
          (Result.is_error (Anf.verify (Anf.Aret (Anf.Catom (Anf.Avar "ghost"))))));
    Alcotest.test_case "eta-params-are-recognized" `Quick (fun () ->
        checkb "$p0" true (Anf.is_eta_param "$p0");
        checkb "user name" false (Anf.is_eta_param "param");
        checkb "temp" false (Anf.is_eta_param "$0"));
  ]

(* ---- closure conversion and known calls ------------------------------------- *)

let report_of src = Vm.report (Vm.compile (baseline_ir src))

let closure_tests =
  [
    Alcotest.test_case "saturated-letrec-call-is-known" `Quick (fun () ->
        let r = report_of "letrec add2 x y = x + y in add2 1 2" in
        checki "functions" 1 r.Backend.Closure.functions;
        checki "known calls" 1 r.Backend.Closure.known_call_sites;
        checki "generic apps" 0 r.Backend.Closure.generic_app_sites);
    Alcotest.test_case "partial-application-stays-generic" `Quick (fun () ->
        let src = "letrec add2 x y = x + y in let inc = add2 1 in inc 41" in
        let r = report_of src in
        checki "known calls" 0 r.Backend.Closure.known_call_sites;
        checkb "generic apps" true (r.Backend.Closure.generic_app_sites >= 2);
        let v, _ = vm_run (baseline_ir src) in
        checkb "value" true (Nml.Eval.equal_value v (Nml.Eval.Vint 42)));
    Alcotest.test_case "mutual-recursion-is-known-both-ways" `Quick (fun () ->
        let src =
          "letrec ev n = if n = 0 then true else od (n - 1); od n = if n = 0 \
           then false else ev (n - 1) in ev 10"
        in
        let r = report_of src in
        checki "functions" 2 r.Backend.Closure.functions;
        (* ev->od, od->ev, and the entry call of ev *)
        checki "known calls" 3 r.Backend.Closure.known_call_sites;
        checki "generic apps" 0 r.Backend.Closure.generic_app_sites;
        let v, _ = vm_run (baseline_ir src) in
        checkb "value" true (Nml.Eval.equal_value v (Nml.Eval.Vbool true)));
    Alcotest.test_case "flat-environment-captures-all-frees" `Quick (fun () ->
        let r =
          report_of "let a = 1 in let b = 2 in letrec f x = x + a + b in f 3"
        in
        checkb "max env >= 2" true (r.Backend.Closure.max_env >= 2));
    Alcotest.test_case "anonymous-lambdas-stay-generic" `Quick (fun () ->
        let r = report_of "let g = fun x -> x + 1 in g 5" in
        checki "known calls" 0 r.Backend.Closure.known_call_sites;
        checkb "generic apps" true (r.Backend.Closure.generic_app_sites >= 1);
        checkb "closure sites" true (r.Backend.Closure.closure_sites >= 1));
  ]

(* ---- VM resource limits and chaos determinism ------------------------------- *)

let vm_tests =
  [
    Alcotest.test_case "fuel-exhaustion-raises-out-of-fuel" `Quick (fun () ->
        let ir = baseline_ir "letrec loop n = loop (n + 1) in loop 0" in
        Alcotest.check_raises "out of fuel" Vm.Out_of_fuel (fun () ->
            ignore (vm_run ~fuel:1_000 ir)));
    Alcotest.test_case "fixed-heap-raises-out-of-memory" `Quick (fun () ->
        let ir =
          baseline_ir
            "letrec build n = if n = 0 then nil else cons n (build (n - 1)) \
             in build 100"
        in
        Alcotest.check_raises "out of memory" Vm.Out_of_memory (fun () ->
            ignore (vm_run ~heap:8 ~grow:false ir)));
    Alcotest.test_case "tail-calls-run-deep" `Quick (fun () ->
        let ir =
          baseline_ir
            "letrec count n = if n = 0 then 0 else count (n - 1) in count \
             200000"
        in
        let v, _ = vm_run ir in
        checkb "value" true (Nml.Eval.equal_value v (Nml.Eval.Vint 0)));
    Alcotest.test_case "chaos-runs-are-deterministic" `Quick (fun () ->
        let src = "letrec rev l a = if null l then a else rev (cdr l) (cons (car l) a) in rev [1, 2, 3, 4, 5] nil" in
        let chaos = { Vm.gc_period = 7; poison = true; chaos_seed = 5 } in
        let run () =
          let _, m = vm_run ~heap:24 ~chaos (opt_ir src) in
          let s = Vm.stats m in
          Runtime.Stats.
            (s.heap_allocs, s.gc_runs, s.chaos_gcs, s.poisoned, s.steps)
        in
        checkb "identical counters" true (run () = run ()));
    Alcotest.test_case "generational-hints-are-counted" `Quick (fun () ->
        let src = "letrec hd l = car l in hd [1, 2, 3]" in
        let s = surface src in
        let liveness_hints =
          let t = Framework.Spinelive.Solver.make (Nml.Infer.infer_program s) in
          Framework.Spinelive.dead_spine_params t
        in
        let config =
          { Runtime.Heap.generational with Runtime.Heap.liveness_hints }
        in
        let ir = (T.optimize ~options:T.all s).T.ir in
        let check_stats label st =
          checki (label ^ " hint sites") 1 st.Runtime.Stats.hint_sites;
          checkb (label ^ " accepted") true
            (st.Runtime.Stats.hints_accepted >= 1)
        in
        let _, m = machine_run ~config ir in
        check_stats "machine" (M.stats m);
        let _, v = vm_run ~config ir in
        check_stats "vm" (Vm.stats v));
  ]

(* ---- fault-message parity and step accounting ------------------------------- *)

(* the harness counts any two crashes as agreeing, so the VM's error
   text is pinned here against the machine's, message for message *)
let fault_programs =
  [
    "car nil";
    "cdr nil";
    "7 div 0";
    "7 mod 0";
    "label leaf";
    "left leaf";
    "right leaf";
    "fst (car nil)";
    "letrec x = x + 1 in x";
    (* reached through a known (tail) call *)
    "letrec f l n = if n = 0 then cdr l else f l (n - 1) in f nil 3";
    (* the primitives decoded inline in the dispatch, on an operand
       loaded from a register, an environment slot and a letrec slot *)
    "car (cdr [1])";
    "cdr (cdr [1])";
    "let l = cdr [1] in let f = fun x -> car l in f 0";
    "let l = cdr [1] in let f = fun x -> cdr l in f 0";
    "letrec l = cdr [1] in car l";
    "letrec l = cdr [1] in cdr l";
    "letrec l = cdr [1]; f x = car l in f 0";
    "letrec l = cdr [1]; f x = cdr l in f 0";
  ]

(* ill-typed operands of the primitives decoded inline fall through to
   the general primitives; the optimizer type-checks, so these run on
   the baseline IR only *)
let ill_typed_fault_programs = [ "null 1"; "car 1"; "true + 1"; "1 < nil"; "nil = 1" ]

let examples_dir =
  let local = Filename.concat (Filename.concat ".." "examples") "programs" in
  if Sys.file_exists local then local else Filename.concat "examples" "programs"

(* [Stats.steps] of [reverse.nml] compiled with every optimization:
   one tick per executed instruction *)
let reverse_opt_steps = 301

let fault_tests =
  [
    Alcotest.test_case "vm-error-text-matches-machine" `Quick (fun () ->
        List.iter
          (fun src ->
            List.iter
              (fun (label, ir) ->
                let expect =
                  match machine_run ir with
                  | _ -> Alcotest.failf "%s (%s): machine did not fail" src label
                  | exception M.Error m -> m
                in
                match vm_run ir with
                | _ -> Alcotest.failf "%s (%s): VM did not fail" src label
                | exception Vm.Error m ->
                    Alcotest.check Alcotest.string
                      (Printf.sprintf "%s (%s)" src label) expect m)
              (("baseline", baseline_ir src)
              :: (if List.mem src fault_programs then [ ("-O", opt_ir src) ] else [])))
          (fault_programs @ ill_typed_fault_programs));
    Alcotest.test_case "one-step-per-instruction" `Quick (fun () ->
        let ir =
          opt_ir
            (In_channel.with_open_text
               (Filename.concat examples_dir "reverse.nml")
               In_channel.input_all)
        in
        let v, m = vm_run ir in
        checki "steps" reverse_opt_steps (Vm.stats m).Runtime.Stats.steps;
        let v', _ = vm_run ~fuel:reverse_opt_steps ir in
        checkb "exact fuel suffices" true (Nml.Eval.equal_value v v');
        (* every budget from 0 up: the run stops exactly when the budget
           is short of the step count *)
        for fuel = 0 to reverse_opt_steps - 1 do
          Alcotest.check_raises (Printf.sprintf "fuel %d" fuel) Vm.Out_of_fuel (fun () ->
              ignore (vm_run ~fuel ir))
        done);
  ]

let () =
  Alcotest.run "backend"
    [
      ("differential", differential_tests);
      ("anf", anf_tests);
      ("closure", closure_tests);
      ("vm", vm_tests);
      ("fault", fault_tests);
    ]
