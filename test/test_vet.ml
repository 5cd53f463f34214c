(* Tests for the independent annotation verifier (lib/vet): the
   optimizer's output audits clean on the corpus and on random programs,
   every mutation point is detected and campaigns are reproducible, and
   hand-broken IRs trigger the intended finding codes. *)

module H = Check.Harness
module V = Vet.Verify
module M = Vet.Mutate
module D = Nml.Diagnostic
module A = Nml.Ast
module Ir = Runtime.Ir

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let optimize src =
  let s = Nml.Surface.of_string src in
  (s, (Optimize.Transform.optimize (Nml.Infer.infer_program s)).Optimize.Transform.ir)

let audit_src src =
  let s, ir = optimize src in
  V.audit ~source:s ir

let has_code c ds = List.exists (fun d -> String.equal d.D.code c) ds

let codes ds = String.concat " " (List.map (fun d -> d.D.code) ds)

(* ---- agreement: the optimizer's own output audits clean -------------------- *)

let agreement_tests =
  [
    Alcotest.test_case "corpus-audits-clean" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let ds, s = audit_src src in
            if ds <> [] then
              Alcotest.failf "%s: unexpected findings: %s" name (codes ds);
            checki (name ^ " findings") 0 s.V.findings)
          H.builtin_corpus);
    Alcotest.test_case "corpus-audits-something" `Quick (fun () ->
        (* the verifier is not vacuous: the corpus carries annotations *)
        let total =
          List.fold_left
            (fun acc (_, src) -> acc + (snd (audit_src src)).V.audited)
            0 H.builtin_corpus
        in
        checkb "audited > 20 obligations" true (total > 20));
  ]

let qcheck_agreement =
  QCheck.Test.make ~count:120 ~name:"random-programs-audit-clean"
    (QCheck.make Gen.gen_any_program ~print:Fun.id)
    (fun src ->
      match audit_src src with
      | ds, _ -> ds = []
      | exception _ -> QCheck.assume_fail ())

(* ---- mutation testing: every point is detected ----------------------------- *)

let mutation_tests =
  [
    Alcotest.test_case "every-corpus-mutant-is-detected" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let s, ir = optimize src in
            List.iter
              (fun p ->
                let ds, _ = V.audit ~source:s (Lazy.force p.M.mutant) in
                if not (D.has_errors ds) then
                  Alcotest.failf "%s: surviving mutant: %s" name p.M.label)
              (M.points ~source:s ir))
          H.builtin_corpus);
    Alcotest.test_case "corpus-has-mutation-points" `Quick (fun () ->
        let total =
          List.fold_left
            (fun acc (_, src) ->
              let s, ir = optimize src in
              acc + List.length (M.points ~source:s ir))
            0 H.builtin_corpus
        in
        checkb "some points exist" true (total > 10));
    Alcotest.test_case "campaign-is-deterministic" `Quick (fun () ->
        let src = Nml.Examples.partition_sort_program in
        let s, ir = optimize src in
        let a = M.campaign ~seed:3 ~count:40 ~source:s ir in
        let b = M.campaign ~seed:3 ~count:40 ~source:s ir in
        checki "points" a.M.points b.M.points;
        checki "detected" a.M.detected b.M.detected;
        checkb "survivors" true (a.M.survivors = b.M.survivors));
    Alcotest.test_case "campaign-detects-everything" `Quick (fun () ->
        let src = Nml.Examples.partition_sort_program in
        let s, ir = optimize src in
        let o = M.campaign ~seed:0 ~count:60 ~source:s ir in
        checki "all draws detected" o.M.draws o.M.detected;
        checkb "no survivors" true (o.M.survivors = []));
    Alcotest.test_case "redirect-family-is-not-vacuous" `Quick (fun () ->
        (* the original definition keeps an unprimed recursive call on a
           projection of its own parameter: redirecting it to the
           destructive variant must be an available mutation *)
        let s, ir = optimize Nml.Examples.rev_program in
        let pts = M.points ~source:s ir in
        checkb "has a redirect point" true
          (List.exists
             (fun p ->
               String.length p.M.label >= 8
               && String.equal (String.sub p.M.label 0 8) "redirect")
             pts));
  ]

(* ---- hand-broken IRs trigger the intended codes ---------------------------- *)

(* a copy function the analysis fully understands: parameter consumed,
   result fresh, so a guarded top-level reuse of l is legitimate *)
let copy_src = "letrec f l = if null l then nil else cons (car l) (f (cdr l)) in f [1, 2]"

let int n = Ir.Const (A.Cint n)
let nil = Ir.Const A.Cnil
let app2 f a b = Ir.App (Ir.App (f, a), b)
let dcons src h t = Ir.App (app2 Ir.Dcons src h, t)
let cons h t = app2 (Ir.Prim A.Cons) h t
let car e = Ir.App (Ir.Prim A.Car, e)
let cdr e = Ir.App (Ir.Prim A.Cdr, e)
let null e = Ir.App (Ir.Prim A.Null, e)

let ir_f body =
  Ir.Letrec
    ([ ("f", Ir.Lam ("l", body)) ], Ir.App (Ir.Var "f", cons (int 1) (cons (int 2) nil)))

let audit_ir body =
  let s = Nml.Surface.of_string copy_src in
  fst (V.audit ~source:s (ir_f body))

let guarded body_else = Ir.If (null (Ir.Var "l"), nil, body_else)

let unit_tests =
  [
    Alcotest.test_case "guarded-reuse-is-clean" `Quick (fun () ->
        let ds =
          audit_ir
            (guarded
               (dcons (Ir.Var "l") (car (Ir.Var "l"))
                  (Ir.App (Ir.Var "f", cdr (Ir.Var "l")))))
        in
        checkb ("clean, got: " ^ codes ds) true (ds = []));
    Alcotest.test_case "unguarded-reuse-is-VET011" `Quick (fun () ->
        let ds =
          audit_ir
            (dcons (Ir.Var "l") (car (Ir.Var "l"))
               (Ir.App (Ir.Var "f", cdr (Ir.Var "l"))))
        in
        checkb ("VET011 in: " ^ codes ds) true (has_code "VET011" ds));
    Alcotest.test_case "non-parameter-source-is-VET010" `Quick (fun () ->
        let ds =
          audit_ir (guarded (dcons (Ir.Var "q") (car (Ir.Var "l")) nil))
        in
        checkb ("VET010 in: " ^ codes ds) true (has_code "VET010" ds));
    Alcotest.test_case "read-after-destroy-is-VET012" `Quick (fun () ->
        (* the recycled root cell is read again by the later (cdr l) *)
        let ds =
          audit_ir
            (guarded
               (cons
                  (dcons (Ir.Var "l") (car (Ir.Var "l")) nil)
                  (Ir.App (Ir.Var "f", cdr (Ir.Var "l")))))
        in
        checkb ("VET012 in: " ^ codes ds) true (has_code "VET012" ds));
    Alcotest.test_case "unsaturated-dcons-is-VET017" `Quick (fun () ->
        let ds =
          audit_ir (guarded (app2 Ir.Dcons (Ir.Var "l") (car (Ir.Var "l"))))
        in
        checkb ("VET017 in: " ^ codes ds) true (has_code "VET017" ds));
    Alcotest.test_case "undeclared-arena-is-VET001" `Quick (fun () ->
        let ir =
          Ir.Letrec
            ( [ ("f", Ir.Lam ("l", guarded (cons (car (Ir.Var "l")) nil))) ],
              Ir.App (Ir.Var "f", app2 (Ir.ConsAt (Ir.Arena 7)) (int 1) nil) )
        in
        let s = Nml.Surface.of_string copy_src in
        let ds = fst (V.audit ~source:s ir) in
        checkb ("VET001 in: " ^ codes ds) true (has_code "VET001" ds));
    Alcotest.test_case "reopened-arena-is-VET005" `Quick (fun () ->
        let ir =
          Ir.Letrec
            ( [ ("f", Ir.Lam ("l", guarded (cons (car (Ir.Var "l")) nil))) ],
              Ir.WithArena
                ( Ir.Region,
                  2,
                  Ir.WithArena
                    ( Ir.Region,
                      2,
                      Ir.App (Ir.Var "f", app2 (Ir.ConsAt (Ir.Arena 2)) (int 1) nil)
                    ) ) )
        in
        let s = Nml.Surface.of_string copy_src in
        let ds = fst (V.audit ~source:s ir) in
        checkb ("VET005 in: " ^ codes ds) true (has_code "VET005" ds));
  ]

(* ---- dead-spine heap hints are independently re-derived -------------------- *)

let hint_tests =
  [
    Alcotest.test_case "derivable-hint-audits-clean" `Quick (fun () ->
        (* hd only ever takes the head of l: its spine past the first
           cell is dead, so the advisory hint is re-derivable *)
        let s, ir = optimize "letrec hd l = car l in hd [1, 2]" in
        let ds, sum = V.audit ~hints:[ ("hd", [ 1 ]) ] ~source:s ir in
        checkb ("clean, got: " ^ codes ds) true (ds = []);
        checkb "hint was audited" true (sum.V.audited >= 1));
    Alcotest.test_case "bogus-hint-is-VET018" `Quick (fun () ->
        (* sum null-tests l and forwards its tail through cdr: the spine
           is live, so the hint must be refused *)
        let s, ir =
          optimize
            "letrec sum l = if null l then 0 else car l + sum (cdr l) in \
             sum [1, 2]"
        in
        let ds, _ = V.audit ~hints:[ ("sum", [ 1 ]) ] ~source:s ir in
        checkb ("VET018 in: " ^ codes ds) true (has_code "VET018" ds));
    Alcotest.test_case "hint-for-dropped-def-is-vacuous" `Quick (fun () ->
        (* monomorphization never emits an instance of a name that does
           not exist: nothing to audit, nothing to report *)
        let s, ir = optimize "letrec hd l = car l in hd [1, 2]" in
        let ds, _ = V.audit ~hints:[ ("ghost", [ 1 ]) ] ~source:s ir in
        checkb ("clean, got: " ^ codes ds) true (ds = []));
  ]

(* ---- diagnostics carry usable source locations ----------------------------- *)

let loc_tests =
  [
    Alcotest.test_case "monomorphized-defs-keep-locations" `Quick (fun () ->
        let s = Nml.Surface.of_string ~file:"m.nml" Nml.Examples.map_pair_program in
        let m = Nml.Mono.run s in
        checkb "has instances" true (m.Nml.Mono.instances <> []);
        List.iter
          (fun (name, rhs) ->
            checkb (name ^ " has a real location") false
              (Nml.Loc.is_dummy (A.loc rhs)))
          m.Nml.Mono.program.Nml.Surface.defs);
    Alcotest.test_case "injected-fault-finding-has-a-location" `Quick (fun () ->
        let s = Nml.Surface.of_string ~file:"r.nml" Nml.Examples.rev_program in
        match H.sabotage H.Widen_arena s with
        | None -> Alcotest.fail "no arena to widen in rev_program"
        | Some ir ->
            let ds, _ = V.audit ~source:s ir in
            checkb "has findings" true (D.has_errors ds);
            checkb "some finding is located" true
              (List.exists (fun d -> not (Nml.Loc.is_dummy d.D.loc)) ds));
  ]

let () =
  Alcotest.run "vet"
    [
      ("agreement", agreement_tests);
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_agreement ]);
      ("mutation", mutation_tests);
      ("findings", unit_tests);
      ("hints", hint_tests);
      ("locations", loc_tests);
    ]
