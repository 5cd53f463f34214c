(* Tests for the escape analysis core: the basic domain, abstract values,
   the abstract semantics of constants, fixpoints, the global/local tests
   against the paper's appendix, sharing analysis, the dynamic exact
   semantics, polymorphic invariance, and the randomized safety property
   (dynamic escapement is below the abstract result). *)

module B = Escape.Besc
module D = Escape.Dvalue
module Sem = Escape.Semantics
module Fix = Escape.Fixpoint
module An = Escape.Analysis
module Sh = Escape.Sharing
module Ex = Escape.Exact
module Ty = Nml.Ty
module A = Nml.Ast
module P = Nml.Parser
module Surface = Nml.Surface
module Eval = Nml.Eval
module Examples = Nml.Examples

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let besc : B.t Alcotest.testable = Alcotest.testable (fun ppf b -> B.pp ppf b) B.equal
let zero = B.zero
let one = B.one

(* ---- basic escape domain ------------------------------------------------ *)

let besc_units =
  [
    Alcotest.test_case "chain-order" `Quick (fun () ->
        checkb "0<=10" true (B.leq zero (one 0));
        checkb "10<=11" true (B.leq (one 0) (one 1));
        checkb "11<=10" false (B.leq (one 1) (one 0));
        checkb "10<=0" false (B.leq (one 0) zero));
    Alcotest.test_case "join-meet" `Quick (fun () ->
        Alcotest.check besc "join" (one 2) (B.join (one 2) (one 1));
        Alcotest.check besc "join-zero" (one 1) (B.join zero (one 1));
        Alcotest.check besc "meet" (one 1) (B.meet (one 2) (one 1));
        Alcotest.check besc "meet-zero" zero (B.meet zero (one 1)));
    Alcotest.test_case "sub" `Quick (fun () ->
        (* car^s strips a spine exactly when the bottom index matches s *)
        Alcotest.check besc "match" (one 0) (B.sub ~s:1 (one 1));
        Alcotest.check besc "deeper" (one 1) (B.sub ~s:2 (one 2));
        Alcotest.check besc "below" (one 1) (B.sub ~s:2 (one 1));
        Alcotest.check besc "indivisible" (one 0) (B.sub ~s:1 (one 0));
        Alcotest.check besc "zero" zero (B.sub ~s:3 zero));
    Alcotest.test_case "sub-invalid" `Quick (fun () ->
        match B.sub ~s:0 (one 1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "sub needs s >= 1");
    Alcotest.test_case "all" `Quick (fun () ->
        Alcotest.(check int) "size" 4 (List.length (B.all ~d:2));
        Alcotest.check besc "first" zero (List.hd (B.all ~d:2)));
    Alcotest.test_case "pp" `Quick (fun () ->
        checks "zero" "<0,0>" (B.to_string zero);
        checks "one" "<1,3>" (B.to_string (one 3)));
    Alcotest.test_case "of-string-inverts-to-string" `Quick (fun () ->
        List.iter
          (fun b ->
            Alcotest.(check (option besc)) (B.to_string b) (Some b) (B.of_string (B.to_string b)))
          (B.all ~d:4);
        List.iter
          (fun s -> Alcotest.(check (option besc)) s None (B.of_string s))
          [ ""; "<0,1>"; "<2,0>"; "<1,-1>"; "<1,2>x"; "1,2"; "<1,2" ]);
    Alcotest.test_case "spines" `Quick (fun () ->
        checki "zero" 0 (B.spines zero);
        checki "one" 4 (B.spines (one 4)));
  ]

let all_bescs = B.all ~d:3

let besc_props =
  let arb = QCheck.make ~print:B.to_string (QCheck.Gen.oneofl all_bescs) in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"join commutative" ~count:200 (QCheck.pair arb arb)
        (fun (a, b) -> B.equal (B.join a b) (B.join b a));
      QCheck.Test.make ~name:"join associative" ~count:200 (QCheck.triple arb arb arb)
        (fun (a, b, c) -> B.equal (B.join a (B.join b c)) (B.join (B.join a b) c));
      QCheck.Test.make ~name:"join idempotent" ~count:50 arb (fun a ->
          B.equal (B.join a a) a);
      QCheck.Test.make ~name:"join is lub" ~count:200 (QCheck.pair arb arb) (fun (a, b) ->
          B.leq a (B.join a b) && B.leq b (B.join a b));
      QCheck.Test.make ~name:"leq total on the chain" ~count:200 (QCheck.pair arb arb)
        (fun (a, b) -> B.leq a b || B.leq b a);
      QCheck.Test.make ~name:"leq antisymmetric" ~count:200 (QCheck.pair arb arb)
        (fun (a, b) -> (not (B.leq a b && B.leq b a)) || B.equal a b);
      QCheck.Test.make ~name:"sub monotone" ~count:200
        (QCheck.triple arb arb (QCheck.int_range 1 4))
        (fun (a, b, s) -> (not (B.leq a b)) || B.leq (B.sub ~s a) (B.sub ~s b));
      QCheck.Test.make ~name:"sub decreasing" ~count:200
        (QCheck.pair arb (QCheck.int_range 1 4))
        (fun (a, s) -> B.leq (B.sub ~s a) a);
      QCheck.Test.make ~name:"compare agrees with leq" ~count:200 (QCheck.pair arb arb)
        (fun (a, b) -> B.compare a b <= 0 = B.leq a b);
    ]

(* ---- abstract values and the semantics of constants --------------------- *)

let ilist = Ty.List Ty.Int
let iilist = Ty.List ilist

let dvalue_units =
  [
    Alcotest.test_case "bottom-top" `Quick (fun () ->
        D.ensure_d 2;
        let bot = D.bottom (Ty.Arrow (ilist, ilist)) in
        let top = D.top ~d:2 (Ty.Arrow (ilist, ilist)) in
        checkb "bot<=top" true (D.leq bot top);
        checkb "top<=bot" false (D.leq top bot);
        checkb "bot=bot" true (D.equal bot (D.bottom (Ty.Arrow (ilist, ilist)))));
    Alcotest.test_case "join-is-lub-on-functions" `Quick (fun () ->
        D.ensure_d 2;
        let f = D.w_value ~esc:B.zero (Ty.Arrow (ilist, ilist)) in
        let g = D.bottom (Ty.Arrow (ilist, ilist)) in
        let j = D.join f g in
        checkb "f<=j" true (D.leq f j);
        checkb "g<=j" true (D.leq g j);
        checkb "j=f" true (D.equal j f) (* join with bottom is identity *));
    Alcotest.test_case "w-accumulates-args" `Quick (fun () ->
        (* W x y = ⟨x' ⊔ y', err⟩ for a two-list-argument function *)
        let ty = Ty.Arrow (ilist, Ty.Arrow (ilist, ilist)) in
        let w = D.w_value ~esc:B.zero ty in
        let r =
          D.apply_all w [ D.base ~ty:ilist (one 1); D.base ~ty:ilist (one 0) ]
        in
        Alcotest.check besc "joined" (one 1) r.D.esc;
        (* the partial application's first component is x' *)
        let partial = D.apply w (D.base ~ty:ilist (one 1)) in
        Alcotest.check besc "partial" (one 1) partial.D.esc);
    Alcotest.test_case "w-of-list-type-is-w-of-element" `Quick (fun () ->
        (* W^{(int->int) list} behaves as W^{int->int} *)
        let w = D.w_value ~esc:B.zero (Ty.List (Ty.Arrow (Ty.Int, Ty.Int))) in
        let r = D.apply w (D.base ~ty:Ty.Int (one 0)) in
        Alcotest.check besc "passes esc" (one 0) r.D.esc);
    Alcotest.test_case "err-raises" `Quick (fun () ->
        let b = D.base ~ty:Ty.Int B.zero in
        match b.D.app b with
        | exception D.Err_applied -> ()
        | _ -> Alcotest.fail "err must not be applicable");
    Alcotest.test_case "probes-cover-chain" `Quick (fun () ->
        D.ensure_d 2;
        checki "base probes" (List.length (B.all ~d:(D.current_d ()))) (List.length (D.probes ilist)));
  ]

(* The pending application engine, driven directly.  Each case runs in a
   fresh solver state so the memo and its counters start cold. *)
let apply_units =
  let fresh f = D.with_state (D.create_state ()) f in
  let int_int = Ty.Arrow (Ty.Int, Ty.Int) in
  let x = D.base ~ty:Ty.Int (one 0) in
  [
    Alcotest.test_case "not-re-entered-keeps-the-body-value" `Quick (fun () ->
        fresh @@ fun () ->
        let g =
          D.v ~ty:int_int ~esc:zero ~app:(fun y -> D.base ~ty:Ty.Int y.D.esc)
        in
        let f = D.v ~ty:(Ty.Arrow (Ty.Int, int_int)) ~esc:zero ~app:(fun _ -> g) in
        (* the stored value is g itself, so g's own memo entries serve
           every later application of it *)
        checki "same id" g.D.id (D.apply f x).D.id;
        let p = D.base ~ty:Ty.Int (one 1) in
        ignore (D.apply g p);
        D.reset_stats ();
        ignore (D.apply (D.apply f x) p);
        let hits, misses = D.cache_stats () in
        checki "hits" 2 hits;
        checki "misses" 0 misses);
    Alcotest.test_case "re-entered-joins-to-the-fixpoint" `Quick (fun () ->
        fresh @@ fun () ->
        (* f x = f x ⊔ c: the re-entry yields bottom, the first run gives
           c, the second confirms it *)
        let c = D.base ~ty:Ty.Int (one 1) in
        let self = ref (D.bottom int_int) in
        let runs = ref 0 in
        let f =
          D.v ~ty:int_int ~esc:zero ~app:(fun y ->
              incr runs;
              D.join (D.apply !self y) c)
        in
        self := f;
        let r = D.apply f x in
        checkb "converges to c" true (D.equal r c);
        checki "body runs" 2 !runs);
    Alcotest.test_case "primitive-bypasses-the-memo" `Quick (fun () ->
        fresh @@ fun () ->
        let cons = Sem.prim_value ~ty:(Ty.Arrow (Ty.Int, Ty.Arrow (ilist, ilist))) A.Cons in
        let l = D.base ~ty:ilist (one 1) in
        for _ = 1 to 3 do
          Alcotest.(check besc) "cons x l" (one 1) (D.apply_all cons [ x; l ]).D.esc
        done;
        checkb "direct" true cons.D.direct;
        Alcotest.(check (pair int int)) "no hits, no misses" (0, 0) (D.cache_stats ()));
    Alcotest.test_case "re-entry-through-a-primitive-converges" `Quick (fun () ->
        fresh @@ fun () ->
        (* f l = cdr (f l) ⊔ l1: the recursion passes through a direct
           value and still settles in two body runs *)
        let l1 = D.base ~ty:ilist (one 1) in
        let il = Ty.Arrow (ilist, ilist) in
        let cdr = Sem.prim_value ~ty:il A.Cdr in
        let self = ref (D.bottom il) in
        let runs = ref 0 in
        let f =
          D.v ~ty:il ~esc:zero ~app:(fun y ->
              incr runs;
              D.join (D.apply cdr (D.apply !self y)) l1)
        in
        self := f;
        let r = D.apply f l1 in
        checkb "converges to l1" true (D.equal r l1);
        checki "body runs" 2 !runs);
    Alcotest.test_case "arrow-bottom-applies-to-bottom" `Quick (fun () ->
        fresh @@ fun () ->
        let bot = D.bottom int_int in
        let r = D.apply bot x in
        checkb "bottom" true (D.equal r (D.bottom Ty.Int));
        checkb "direct" true bot.D.direct;
        Alcotest.(check (pair int int)) "no hits, no misses" (0, 0) (D.cache_stats ()));
  ]

(* The read-set contract of the dependency tracker ([Framework.Deps])
   under the application memo: what a [watch] frame reads ([sources]) for
   a computation, which touches make a memo entry stale, and when a
   [watch] frame is notified.  A memo entry stands for its computation,
   so the reads of the memos it hit are its reads too, however deep they
   sit.  Each case runs in a fresh solver state. *)
let reads_units =
  let module Deps = Framework.Deps in
  let fresh f = D.with_state (D.create_state ()) f in
  let int_int = Ty.Arrow (Ty.Int, Ty.Int) in
  let x = D.base ~ty:Ty.Int (one 0) in
  let sids reads = List.sort compare (List.map (fun (s, _) -> Deps.id s) reads) in
  (* a memoized function whose body notes [s] *)
  let reader ?(runs = ref 0) s =
    D.v ~ty:int_int ~esc:zero ~app:(fun y ->
        incr runs;
        Deps.note_read s;
        D.base ~ty:Ty.Int y.D.esc)
  in
  (* a memoized function whose body applies each of [gs] *)
  let over ?(runs = ref 0) gs =
    D.v ~ty:int_int ~esc:zero ~app:(fun y ->
        incr runs;
        List.fold_left (fun acc g -> D.join acc (D.apply g y)) (D.bottom Ty.Int) gs)
  in
  [
    Alcotest.test_case "hit-contributes-its-reads" `Quick (fun () ->
        fresh @@ fun () ->
        let s1 = Deps.source () and s2 = Deps.source () in
        let inner = reader s2 in
        ignore (D.apply inner x);
        let outer =
          D.v ~ty:int_int ~esc:zero ~app:(fun y ->
              Deps.note_read s1;
              D.apply inner y)
        in
        D.reset_stats ();
        let _, reads = Deps.watch ~notify:ignore (fun () -> D.apply outer x) in
        checki "inner hit" 1 (fst (D.cache_stats ()));
        Alcotest.(check (list int))
          "both sources" (sids [ (s1, 0); (s2, 0) ]) (sids (Deps.sources reads)));
    Alcotest.test_case "deep-touch-stales-the-outer-memo" `Quick (fun () ->
        fresh @@ fun () ->
        let s2 = Deps.source () and other = Deps.source () in
        let inner = reader s2 in
        let middle = over [ inner ] in
        let runs = ref 0 and seen = ref (-1) in
        let outer =
          D.v ~ty:int_int ~esc:zero ~app:(fun y ->
              incr runs;
              seen := D.invalidations ();
              D.apply middle y)
        in
        ignore (D.apply outer x);
        checki "first run" 1 !runs;
        (* an unrelated touch leaves the entry valid *)
        Deps.touch other;
        let before = D.invalidations () in
        ignore (D.apply outer x);
        checki "still cached" 1 !runs;
        checki "nothing invalidated" before (D.invalidations ());
        (* s2 was read two memo levels below [outer] *)
        Deps.touch s2;
        ignore (D.apply outer x);
        checki "body re-ran" 2 !runs;
        checki "outer discarded before its body re-ran" (before + 1) !seen);
    Alcotest.test_case "diamond-validates-and-flattens-promptly" `Quick (fun () ->
        fresh @@ fun () ->
        (* 40 levels of two entries, each applying both entries below:
           2^40 paths over 81 entries, so every walk must mark what it
           has visited *)
        let s = Deps.source () and other = Deps.source () in
        let leaf = reader s in
        let rec build n below =
          if n = 0 then below
          else build (n - 1) [ over below; over below ]
        in
        let top_runs = ref 0 in
        let top = over ~runs:top_runs (build 40 [ leaf ]) in
        let notified = ref 0 in
        let _, reads = Deps.watch ~notify:(fun () -> incr notified) (fun () -> D.apply top x) in
        Alcotest.(check (list int)) "one source" [ Deps.id s ] (sids (Deps.sources reads));
        Deps.touch other;
        let _, reads = Deps.watch ~notify:ignore (fun () -> D.apply top x) in
        Alcotest.(check (list int)) "hit reports it" [ Deps.id s ] (sids (Deps.sources reads));
        checki "cached" 1 !top_runs;
        Deps.touch s;
        checki "one touch, one notify" 1 !notified;
        checki "every entry stale" 0
          (List.length (List.filter (fun e -> not (Deps.stale e)) (D.memo_entries ())));
        ignore (D.apply top x);
        checki "recomputed" 2 !top_runs);
    Alcotest.test_case "watch-notified-once-two-levels-down" `Quick (fun () ->
        (* the frame computes the memos below it, or hits them *)
        List.iter
          (fun hit ->
            fresh @@ fun () ->
            let s = Deps.source () and other = Deps.source () in
            let middle = over [ reader s ] in
            if hit then ignore (D.apply middle x);
            D.reset_stats ();
            let notified = ref 0 in
            let _ = Deps.watch ~notify:(fun () -> incr notified) (fun () -> D.apply middle x) in
            checki "hit or computed" (if hit then 1 else 0) (fst (D.cache_stats ()));
            Deps.touch other;
            checki "an unrelated touch notifies nobody" 0 !notified;
            Deps.touch s;
            checki "first touch notifies" 1 !notified;
            Deps.touch s;
            checki "second touch does not" 1 !notified)
          [ false; true ]);
    Alcotest.test_case "linking-a-stale-entry-notifies-at-once" `Quick (fun () ->
        fresh @@ fun () ->
        let s = Deps.source () in
        (* its own computation moves what it read *)
        let runs = ref 0 in
        let mover =
          D.v ~ty:int_int ~esc:zero ~app:(fun y ->
              incr runs;
              Deps.note_read s;
              Deps.touch s;
              D.base ~ty:Ty.Int y.D.esc)
        in
        let notified = ref 0 and seen = ref (-1) in
        let _ =
          Deps.watch
            ~notify:(fun () -> incr notified)
            (fun () ->
              ignore (D.apply mover x);
              seen := !notified)
        in
        checki "notified when the entry was linked" 1 !seen;
        let before = D.invalidations () in
        ignore (D.apply mover x);
        checki "recomputed" 2 !runs;
        checki "discarded at lookup" (before + 1) (D.invalidations ()));
    Alcotest.test_case "aborted-reads-land-in-the-enclosing-frame" `Quick (fun () ->
        fresh @@ fun () ->
        let s = Deps.source () in
        let failing =
          D.v ~ty:int_int ~esc:zero ~app:(fun _ ->
              Deps.note_read s;
              raise Exit)
        in
        let notified = ref 0 in
        let _, reads =
          Deps.watch
            ~notify:(fun () -> incr notified)
            (fun () -> try ignore (D.apply failing x) with Exit -> ())
        in
        Alcotest.(check (list int)) "read set" [ Deps.id s ] (sids (Deps.sources reads));
        Deps.touch s;
        checki "the catching frame is notified" 1 !notified);
    Alcotest.test_case "random-touches-match-the-pull-definition" `Quick (fun () ->
        (* random layered memo functions over four sources, some of
           which move a source while computing; after every application
           (in a watch) or touch, each memo entry's flag and each
           watch's notifications must be what the pull definition says *)
        let rand = Random.State.make [| 20261017 |] in
        let pick l = List.filter (fun _ -> Random.State.int rand 3 = 0) l in
        for _ = 1 to 200 do
          fresh @@ fun () ->
          let srcs = List.init 4 (fun _ -> Deps.source ()) in
          let args = [ x; D.base ~ty:Ty.Int (one 1) ] in
          let fns = Array.make 8 (D.bottom int_int) in
          Array.iteri
            (fun i _ ->
              let reads = pick srcs and below = pick (List.init i Fun.id) in
              let moves = if Random.State.int rand 8 = 0 then pick srcs else [] in
              fns.(i) <-
                D.v ~ty:int_int ~esc:zero ~app:(fun y ->
                    List.iter Deps.note_read reads;
                    let r =
                      List.fold_left
                        (fun acc j -> D.join acc (D.apply fns.(j) y))
                        (D.bottom Ty.Int) below
                    in
                    List.iter Deps.touch moves;
                    r))
            fns;
          let watches = ref [] in
          for _ = 1 to 12 do
            (if Random.State.bool rand then
               let f = fns.(Random.State.int rand 8) in
               let y = List.nth args (Random.State.int rand 2) in
               let notified = ref 0 in
               let _, reads = Deps.watch ~notify:(fun () -> incr notified) (fun () -> D.apply f y) in
               watches := (notified, reads) :: !watches
             else Deps.touch (List.nth srcs (Random.State.int rand 4)));
            let j = Stale_oracle.judge () in
            List.iter (fun e -> ignore (Stale_oracle.stale j e)) (D.memo_entries ());
            List.iter
              (fun (e, pulled) -> checkb "entry flag" pulled (Deps.stale e))
              (Stale_oracle.verdicts j);
            List.iter
              (fun (notified, reads) ->
                let moved =
                  List.exists (fun (s, g) -> Deps.generation s <> g) (Deps.sources reads)
                in
                checki "watch notified" (Bool.to_int moved) !notified)
              !watches
          done
        done);
    Alcotest.test_case "sources-in-first-read-order" `Quick (fun () ->
        (* direct reads and the reads of a hit entry, interleaved: each
           source is listed once, where it was first read *)
        fresh @@ fun () ->
        let s1 = Deps.source () and s2 = Deps.source () and s3 = Deps.source () in
        let inner = reader s1 in
        ignore (D.apply inner x);
        let _, reads =
          Deps.watch ~notify:ignore (fun () ->
              Deps.note_read s3;
              Deps.note_read s2;
              ignore (D.apply inner x);
              Deps.note_read s3)
        in
        Alcotest.(check (list int))
          "first-read order" (List.map Deps.id [ s3; s2; s1 ])
          (List.map (fun (s, _) -> Deps.id s) (Deps.sources reads)));
    Alcotest.test_case "flow-watch-notified-once" `Quick (fun () ->
        (* an evaluation's frame is isolated: a read notifies its own
           frame only, not the one around it, and is listed once *)
        let s = Deps.source () and other = Deps.source () in
        let outer = ref 0 and inner = ref 0 in
        let (_, reads), _ =
          Deps.watch
            ~notify:(fun () -> incr outer)
            (fun () ->
              Deps.watch
                ~notify:(fun () -> incr inner)
                (fun () ->
                  Deps.note_read s;
                  Deps.note_read s))
        in
        Alcotest.(check (list int))
          "one read" [ Deps.id s ]
          (List.map (fun (s, _) -> Deps.id s) (Deps.sources reads));
        Deps.touch other;
        checki "unrelated touch" 0 !inner;
        Deps.touch s;
        Deps.touch s;
        checki "inner notified once" 1 !inner;
        checki "outer read nothing" 0 !outer);
    Alcotest.test_case "product-watch-notified-once" `Quick (fun () ->
        (* both components of escape x usage read [g] through the global
           hook, escape inside its memoized applications and usage
           directly: the evaluation's one frame lists the source once
           and a touch notifies it once *)
        let prog = Nml.Infer.infer_program (Surface.of_string "letrec g l = l; f l = g l in f [1]") in
        let body = Nml.Infer.instantiate_def prog "f" None in
        let s = Deps.source () in
        let evaluate (module S : Framework.Spec.S) =
          let calls = ref 0 in
          let global _ ty =
            incr calls;
            Deps.note_read s;
            S.bottom ty
          in
          S.with_state (S.create_state ()) @@ fun () ->
          let ctx = S.make_ctx ~d:(fun () -> 1) ~global ~max_iters:10 in
          let notified = ref 0 in
          let _, reads =
            Deps.watch
              ~notify:(fun () -> incr notified)
              (fun () -> S.equal ~d:1 (S.transfer ctx body) (S.bottom body.Nml.Tast.ty))
          in
          (!calls, reads, notified)
        in
        let by_escape, _, _ = evaluate (module Escape.Espec) in
        let by_usage, _, _ = evaluate (module Framework.Usage.D) in
        checkb "each component reads it" true (by_escape > 0 && by_usage > 0);
        let calls, reads, notified = evaluate (module Analyses.Product.PD) in
        checki "the product reads it through both" (by_escape + by_usage) calls;
        Alcotest.(check (list int))
          "one product source" [ Deps.id s ]
          (List.map (fun (s, _) -> Deps.id s) (Deps.sources reads));
        Deps.touch s;
        checki "one notify" 1 !notified);
  ]

let prim ~ty p = Sem.prim_value ~ty p

let semantics_units =
  let cons_ty = Ty.Arrow (Ty.Int, Ty.Arrow (ilist, ilist)) in
  let car1_ty = Ty.Arrow (ilist, Ty.Int) in
  let car2_ty = Ty.Arrow (iilist, ilist) in
  [
    Alcotest.test_case "cons-joins" `Quick (fun () ->
        let c = prim ~ty:cons_ty A.Cons in
        let x = D.base ~ty:Ty.Int (one 0) in
        let y = D.base ~ty:ilist (one 1) in
        Alcotest.check besc "partial carries x" (one 0) (D.apply c x).D.esc;
        Alcotest.check besc "full join" (one 1) (D.apply_all c [ x; y ]).D.esc);
    Alcotest.test_case "car1" `Quick (fun () ->
        let c = prim ~ty:car1_ty A.Car in
        Alcotest.check besc "strips" (one 0) (D.apply c (D.base ~ty:ilist (one 1))).D.esc;
        Alcotest.check besc "keeps-below" (one 0)
          (D.apply c (D.base ~ty:ilist (one 0))).D.esc;
        Alcotest.check besc "zero" zero (D.apply c (D.base ~ty:ilist zero)).D.esc);
    Alcotest.test_case "car2" `Quick (fun () ->
        let c = prim ~ty:car2_ty A.Car in
        Alcotest.check besc "strips-at-2" (one 1)
          (D.apply c (D.base ~ty:iilist (one 2))).D.esc;
        (* s > n: the n-th bottom spine is not in the top spine *)
        Alcotest.check besc "keeps-at-1" (one 1)
          (D.apply c (D.base ~ty:iilist (one 1))).D.esc);
    Alcotest.test_case "cdr-is-identity" `Quick (fun () ->
        let c = prim ~ty:(Ty.Arrow (ilist, ilist)) A.Cdr in
        Alcotest.check besc "same" (one 1) (D.apply c (D.base ~ty:ilist (one 1))).D.esc);
    Alcotest.test_case "null-discards" `Quick (fun () ->
        let c = prim ~ty:(Ty.Arrow (ilist, Ty.Bool)) A.Null in
        Alcotest.check besc "zero" zero (D.apply c (D.base ~ty:ilist (one 1))).D.esc);
    Alcotest.test_case "plus-discards-but-partial-carries" `Quick (fun () ->
        let c = prim ~ty:(Ty.Arrow (Ty.Int, Ty.Arrow (Ty.Int, Ty.Int))) A.Add in
        let x = D.base ~ty:Ty.Int (one 0) in
        Alcotest.check besc "partial" (one 0) (D.apply c x).D.esc;
        Alcotest.check besc "full" zero (D.apply_all c [ x; x ]).D.esc);
    Alcotest.test_case "nil-is-bottom" `Quick (fun () ->
        let v = Sem.const_value ~ty:iilist A.Cnil in
        Alcotest.check besc "esc" zero v.D.esc);
    Alcotest.test_case "int-const" `Quick (fun () ->
        Alcotest.check besc "esc" zero (Sem.const_value ~ty:Ty.Int (A.Cint 7)).D.esc);
  ]

(* ---- fixpoints and the appendix results --------------------------------- *)

let solver_of src = Fix.of_source src

let g_escs t name = List.map (fun v -> v.An.esc) (An.global_all t name)

let check_g name src fname expected =
  Alcotest.test_case name `Quick (fun () ->
      let t = solver_of src in
      Alcotest.(check (list besc)) name expected (g_escs t fname))

let wrapped defs = Examples.wrap defs "0"

let analysis_units =
  [
    (* the paper's appendix (A.1) *)
    check_g "G(append)" (wrapped [ Examples.append_def ]) "append" [ one 0; one 1 ];
    check_g "G(split)"
      (wrapped [ Examples.split_def ])
      "split"
      [ zero; one 0; one 1; one 1 ];
    check_g "G(ps)" Examples.partition_sort_program "ps" [ one 0 ];
    (* introduction's example (properties 1 and 2) *)
    check_g "G(pair)" (wrapped [ Examples.pair_def ]) "pair" [ one 0 ];
    check_g "G(map)" (wrapped [ Examples.map_def ]) "map" [ zero; one 0 ];
    (* naive reverse (A.3.2) *)
    check_g "G(rev)" Examples.rev_program "rev" [ one 0 ];
    (* a catalogue of classics, each reasoned by hand *)
    check_g "G(length)" (wrapped [ Examples.length_def ]) "length" [ zero ];
    check_g "G(sum)" (wrapped [ Examples.sum_def ]) "sum" [ zero ];
    check_g "G(member)" (wrapped [ Examples.member_def ]) "member" [ zero; zero ];
    check_g "G(take)" (wrapped [ Examples.take_def ]) "take" [ zero; one 0 ];
    check_g "G(drop)" (wrapped [ Examples.drop_def ]) "drop" [ zero; one 1 ];
    check_g "G(nth)" (wrapped [ Examples.nth_def ]) "nth" [ zero; one 0 ];
    check_g "G(last)" (wrapped [ Examples.last_def ]) "last" [ one 0 ];
    check_g "G(filter)" (wrapped [ Examples.filter_def ]) "filter" [ zero; one 0 ];
    check_g "G(insert)" (wrapped [ Examples.insert_def ]) "insert" [ one 0; one 1 ];
    check_g "G(isort)"
      (wrapped [ Examples.insert_def; Examples.isort_def ])
      "isort" [ one 0 ];
    check_g "G(concat)"
      (wrapped [ Examples.append_def; Examples.concat_def ])
      "concat" [ one 0 ];
    check_g "G(create_list)" (wrapped [ Examples.create_list_def ]) "create_list" [ one 0 ];
    check_g "G(id)" (wrapped [ Examples.id_def ]) "id" [ one 0 ];
    check_g "G(konst)" (wrapped [ Examples.const_def ]) "konst" [ one 0; zero ];
    check_g "G(compose)" (wrapped [ Examples.compose_def ]) "compose" [ zero; zero; one 0 ];
    check_g "G(foldr)" (wrapped [ Examples.foldr_def ]) "foldr" [ zero; one 0; one 0 ];
    (* applying an unknown function: worst case says the (simplest-instance,
       hence non-list) argument escapes *)
    check_g "G(apply)" "letrec apply f x = f x in 0" "apply" [ zero; one 0 ];
    (* a function returning its (non-list) argument inside a fresh cell *)
    check_g "G(box)" "letrec box x = cons x nil in 0" "box" [ one 0 ];
    (* self-append: both parameters are the same list *)
    check_g "G(double)" "letrec double x = append x x; append x y = if null x then y else cons (car x) (append (cdr x) y) in 0"
      "double" [ one 1 ];
    (* tail of the argument escapes: cdr is abstractly the identity *)
    check_g "G(tail)" "letrec tail x = cdr x in 0" "tail" [ one 1 ];
  ]

let fixpoint_units =
  [
    Alcotest.test_case "appendix-iteration-count" `Quick (fun () ->
        (* append converges on its 2nd Kleene iterate (appendix A.1) *)
        let t = solver_of (wrapped [ Examples.append_def ]) in
        ignore (Fix.value t "append" None);
        checkb "few passes" true (Fix.passes t <= 4);
        checkb "not capped" true (not (Fix.capped t)));
    Alcotest.test_case "d-of-ps-program" `Quick (fun () ->
        let t = solver_of Examples.partition_sort_program in
        ignore (Fix.value t "ps" None);
        checki "d" 2 (Fix.d t));
    Alcotest.test_case "instances-are-shared" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.append_def ]) in
        ignore (Fix.value t "append" None);
        ignore (Fix.value t "append" None);
        checki "one instance" 1 (List.length (Fix.instances t)));
    Alcotest.test_case "deeper-instance-demanded" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.append_def ]) in
        let inst =
          Ty.Arrow (iilist, Ty.Arrow (iilist, iilist))
        in
        let v = Fix.value t "append" (Some inst) in
        checkb "value" true (B.equal v.D.esc B.zero);
        checki "d grew" 2 (Fix.d t));
    Alcotest.test_case "main-value" `Quick (fun () ->
        let t = solver_of Examples.partition_sort_program in
        let v = Fix.main_value t in
        Alcotest.check besc "nothing interesting in main" zero v.D.esc);
    Alcotest.test_case "unknown-def" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.append_def ]) in
        match Fix.value t "nosuch" None with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "mutual-recursion" `Quick (fun () ->
        let src =
          "letrec evens l = if null l then nil else cons (car l) (odds (cdr l)); \
           odds l = if null l then nil else evens (cdr l) in 0"
        in
        let t = solver_of src in
        Alcotest.(check (list besc)) "evens" [ one 0 ] (g_escs t "evens");
        Alcotest.(check (list besc)) "odds" [ one 0 ] (g_escs t "odds"));
    Alcotest.test_case "capture-arity-choice" `Quick (fun () ->
        (* capture x = lambda(y). car x + y  has full arity 2.  Viewed as a
           one-argument call (n = 1), the returned closure captures x, so x
           escapes; viewed saturated (n = 2), the final int contains
           nothing. *)
        let t = solver_of "letrec capture x = lambda(y). car x + y in 0" in
        let v1 = An.global t "capture" ~arg:1 ~arity:1 in
        Alcotest.check besc "closure escape" (one 1) v1.An.esc;
        let v2 = An.global t "capture" ~arg:1 ~arity:2 in
        Alcotest.check besc "saturated" zero v2.An.esc);
    Alcotest.test_case "nested-letrec" `Quick (fun () ->
        let src =
          "letrec outer x = (letrec inner y = if null y then nil else cons (car y) (inner (cdr y)) in inner x) in 0"
        in
        let t = solver_of src in
        Alcotest.(check (list besc)) "outer" [ one 0 ] (g_escs t "outer"));
  ]

(* ---- local test ---------------------------------------------------------- *)

let local_units =
  [
    Alcotest.test_case "map-pair-local" `Quick (fun () ->
        (* introduction, property 3: top two spines of the second argument
           of (map pair [[1,2],[3,4],[5,6]]) do not escape *)
        let t = solver_of Examples.map_pair_program in
        let v =
          An.local t "map" [ P.parse "pair"; P.parse "[[1,2],[3,4],[5,6]]" ] ~arg:2
        in
        Alcotest.check besc "L" (one 0) v.An.esc;
        checki "spines" 2 v.An.spines;
        checki "keep" 2 (An.non_escaping_top_spines v));
    Alcotest.test_case "local-at-most-global" `Quick (fun () ->
        (* map with the identity lets elements escape globally; locally with
           a discarding function nothing escapes *)
        let src = wrapped [ Examples.map_def ] in
        let t = solver_of src in
        let g = An.global t "map" ~arg:2 in
        let l = An.local t "map" [ P.parse "lambda(n). 0"; P.parse "[1,2]" ] ~arg:2 in
        checkb "L <= G" true (B.leq l.An.esc g.An.esc);
        Alcotest.check besc "L is zero" zero l.An.esc);
    Alcotest.test_case "local-id-function" `Quick (fun () ->
        (* map id: elements escape, spine still copied *)
        let t = solver_of (wrapped [ Examples.map_def ]) in
        let l = An.local t "map" [ P.parse "lambda(n). n"; P.parse "[1,2]" ] ~arg:2 in
        Alcotest.check besc "elements" (one 0) l.An.esc);
    Alcotest.test_case "local-append-of-defs" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.append_def ]) in
        let l = An.local t "append" [ P.parse "[1,2]"; P.parse "[3]" ] ~arg:2 in
        Alcotest.check besc "whole second arg" (one 1) l.An.esc);
    Alcotest.test_case "local-call-node" `Quick (fun () ->
        let t = solver_of Examples.map_pair_program in
        let prog = Fix.program t in
        let main = Nml.Infer.main_ground prog in
        let v = An.local_call t main ~arg:2 in
        Alcotest.check besc "same as local" (one 0) v.An.esc);
    Alcotest.test_case "bad-positions" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.append_def ]) in
        (match An.global t "append" ~arg:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "arg 0");
        match An.global t "append" ~arg:3 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "arg 3");
  ]

(* ---- polymorphic invariance (Theorem 1) ---------------------------------- *)

let arrow2 a b c = Ty.Arrow (a, Ty.Arrow (b, c))

let invariance_units =
  (* Theorem 1: either both instances yield <0,0>, or both yield <1,k> with
     the same number of non-escaping top spines s_i - k. *)
  let invariant_pair v v' =
    match (An.escapes v, An.escapes v') with
    | false, false -> true
    | true, true -> An.non_escaping_top_spines v = An.non_escaping_top_spines v'
    | _ -> false
  in
  let check_invariant name src fname ~arg insts =
    Alcotest.test_case name `Quick (fun () ->
        let t = solver_of src in
        let vs = List.map (fun inst -> An.global ~inst t fname ~arg) insts in
        match vs with
        | [] -> ()
        | v :: rest ->
            List.iter (fun v' -> checkb "Theorem 1" true (invariant_pair v v')) rest)
  in
  let blist = Ty.List Ty.Bool in
  [
    check_invariant "append-invariant" (wrapped [ Examples.append_def ]) "append" ~arg:1
      [
        arrow2 ilist ilist ilist;
        arrow2 iilist iilist iilist;
        arrow2 (Ty.List iilist) (Ty.List iilist) (Ty.List iilist);
        arrow2 blist blist blist;
      ];
    check_invariant "append-invariant-arg2" (wrapped [ Examples.append_def ]) "append"
      ~arg:2
      [ arrow2 ilist ilist ilist; arrow2 (Ty.List iilist) (Ty.List iilist) (Ty.List iilist) ];
    check_invariant "rev-invariant" Examples.rev_program "rev" ~arg:1
      [ Ty.Arrow (ilist, ilist); Ty.Arrow (iilist, iilist) ];
    check_invariant "length-invariant" (wrapped [ Examples.length_def ]) "length" ~arg:1
      [ Ty.Arrow (ilist, Ty.Int); Ty.Arrow (iilist, Ty.Int) ];
    check_invariant "id-invariant" (wrapped [ Examples.id_def ]) "id" ~arg:1
      [ Ty.Arrow (Ty.Int, Ty.Int); Ty.Arrow (ilist, ilist); Ty.Arrow (iilist, iilist) ];
    Alcotest.test_case "map-deeper-instance" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.map_def ]) in
        let inst = arrow2 (Ty.Arrow (ilist, ilist)) iilist iilist in
        let v = An.global ~inst t "map" ~arg:2 in
        Alcotest.check besc "bottom spine may escape through f" (one 1) v.An.esc;
        checki "top spine kept" 1 (An.non_escaping_top_spines v));
  ]

(* ---- sharing (Theorem 2) -------------------------------------------------- *)

let sharing_units =
  [
    Alcotest.test_case "ps-result-unshared" `Quick (fun () ->
        let t = solver_of Examples.partition_sort_program in
        let i = Sh.result_unshared t "ps" in
        checki "d_f" 1 i.Sh.result_spines;
        checki "unshared" 1 i.Sh.unshared_top);
    Alcotest.test_case "split-result-unshared" `Quick (fun () ->
        let t = solver_of Examples.partition_sort_program in
        let i = Sh.result_unshared t "split" in
        checki "d_f" 2 i.Sh.result_spines;
        checki "unshared top spine only" 1 i.Sh.unshared_top);
    Alcotest.test_case "append-result-shares" `Quick (fun () ->
        (* append returns all of y: worst case nothing is unshared *)
        let t = solver_of (wrapped [ Examples.append_def ]) in
        let i = Sh.result_unshared t "append" in
        checki "unshared" 0 i.Sh.unshared_top);
    Alcotest.test_case "append-with-unshared-args" `Quick (fun () ->
        (* clause 1: if y's top spine is known unshared, the result's top
           spine is unshared *)
        let t = solver_of (wrapped [ Examples.append_def ]) in
        let i = Sh.result_unshared_given t "append" ~args_unshared:[ 1; 1 ] in
        checki "unshared" 1 i.Sh.unshared_top);
    Alcotest.test_case "reuse-budget" `Quick (fun () ->
        (* append can reuse min(u_1, d_1 - esc_1) = 1 spine of x *)
        let t = solver_of (wrapped [ Examples.append_def ]) in
        checki "x reusable" 1
          (Sh.argument_unshared_after t "append" ~arg:1 ~args_unshared:[ 1; 1 ]);
        checki "y not reusable" 0
          (Sh.argument_unshared_after t "append" ~arg:2 ~args_unshared:[ 1; 1 ]));
    Alcotest.test_case "bad-args" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.append_def ]) in
        match Sh.result_unshared_given t "append" ~args_unshared:[ 1 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* ---- dynamic exact semantics --------------------------------------------- *)

let observe src fname args arg =
  Ex.observe_call (Surface.of_string src) ~fname ~args:(List.map P.parse args) ~arg

let exact_units =
  [
    Alcotest.test_case "append-arg1-copied" `Quick (fun () ->
        let ob = observe (wrapped [ Examples.append_def ]) "append" [ "[1,2,3]"; "[4]" ] 1 in
        Alcotest.check besc "dyn" zero ob.Ex.esc;
        checki "total" 3 ob.Ex.total_cells;
        checki "escaped" 0 ob.Ex.escaped_cells);
    Alcotest.test_case "append-arg2-escapes" `Quick (fun () ->
        let ob = observe (wrapped [ Examples.append_def ]) "append" [ "[1]"; "[2,3]" ] 2 in
        Alcotest.check besc "dyn" (one 1) ob.Ex.esc;
        checki "escaped" 2 ob.Ex.escaped_cells);
    Alcotest.test_case "id-whole-escape" `Quick (fun () ->
        let ob = observe (wrapped [ Examples.id_def ]) "id" [ "[[1],[2]]" ] 1 in
        Alcotest.check besc "dyn" (one 2) ob.Ex.esc);
    Alcotest.test_case "ps-nothing" `Quick (fun () ->
        let ob = observe Examples.partition_sort_program "ps" [ "[5,2,7,1,3]" ] 1 in
        Alcotest.check besc "dyn" zero ob.Ex.esc);
    Alcotest.test_case "drop-partial" `Quick (fun () ->
        (* drop 2 keeps a suffix: cells of the argument escape *)
        let ob = observe (wrapped [ Examples.drop_def ]) "drop" [ "2"; "[1,2,3,4]" ] 2 in
        Alcotest.check besc "dyn" (one 1) ob.Ex.esc;
        checki "two suffix cells" 2 ob.Ex.escaped_cells);
    Alcotest.test_case "concat-inner-spines" `Quick (fun () ->
        (* concat copies the outer spine; the *last* inner list is returned
           by append as-is only when it is the second argument of the final
           append — with our definition everything is rebuilt except via
           append's y, i.e. the final nil: no cells escape *)
        let ob =
          observe
            (wrapped [ Examples.append_def; Examples.concat_def ])
            "concat" [ "[[1],[2,3]]" ] 1
        in
        checkb "below abstract" true (B.leq ob.Ex.esc (one 0)));
    Alcotest.test_case "closure-capture-escape" `Quick (fun () ->
        (* the argument escapes inside the returned closure's environment *)
        let ob =
          observe "letrec capture x = lambda(y). car x + y in 0" "capture" [ "[1,2]" ] 1
        in
        Alcotest.check besc "dyn" (one 1) ob.Ex.esc);
    Alcotest.test_case "untrackable-int" `Quick (fun () ->
        let ob = observe (wrapped [ Examples.id_def ]) "id" [ "42" ] 1 in
        checkb "not trackable" false ob.Ex.trackable;
        Alcotest.check besc "dyn" zero ob.Ex.esc);
    Alcotest.test_case "nonlist-closure-escapes" `Quick (fun () ->
        let ob =
          observe "letrec pick f g = f in 0" "pick"
            [ "lambda(n). n + 1"; "lambda(n). n" ] 1
        in
        Alcotest.check besc "dyn" (one 0) ob.Ex.esc);
  ]

(* ---- products (the paper's "tuples" extension) ---------------------------- *)

let product_units =
  let iprod = Ty.Prod (Ty.Int, Ty.Int) in
  [
    check_g "G(zip)" (wrapped [ Examples.zip_def ]) "zip" [ one 0; one 0 ];
    check_g "G(fsts)" (wrapped [ Examples.unzip_fsts_def ]) "fsts" [ one 0 ];
    check_g "G(snds)" (wrapped [ Examples.unzip_snds_def ]) "snds" [ one 0 ];
    check_g "G(swap)" (wrapped [ Examples.swap_def ]) "swap" [ one 0 ];
    check_g "G(assoc)" (wrapped [ Examples.assoc_def ]) "assoc" [ one 0; zero; one 0 ];
    (* components consumed by arithmetic never escape *)
    check_g "G(addfst)" "letrec addfst p = fst p + snd p in 0" "addfst" [ zero ];
    (* a pair is built from both arguments: both escape *)
    check_g "G(mk)" "letrec mk x y = mkpair x y in 0" "mk" [ one 0; one 0 ];
    Alcotest.test_case "component-resolution" `Quick (fun () ->
        (* snds lets .snd escape but never .fst *)
        let t = solver_of (wrapped [ Examples.unzip_snds_def ]) in
        let vs = An.global_components t "snds" ~arg:1 in
        (match List.assoc [ D.Cfst ] vs with
        | v -> Alcotest.check besc ".fst stays" zero v.An.esc);
        match List.assoc [ D.Csnd ] vs with
        | v -> Alcotest.check besc ".snd escapes" (one 0) v.An.esc);
    Alcotest.test_case "component-with-list" `Quick (fun () ->
        (* at (int * int list) list, the whole .snd component list escapes *)
        let t = solver_of (wrapped [ Examples.unzip_snds_def ]) in
        let inst = Ty.Arrow (Ty.List (Ty.Prod (Ty.Int, ilist)), Ty.List ilist) in
        let vs = An.global_components ~inst t "snds" ~arg:1 in
        let v = List.assoc [ D.Csnd ] vs in
        Alcotest.check besc "whole component" (one 1) v.An.esc;
        checki "component spines" 1 v.An.spines);
    Alcotest.test_case "component-paths" `Quick (fun () ->
        checki "flat" 1 (List.length (An.component_paths Ty.Int));
        checki "pair" 2 (List.length (An.component_paths iprod));
        checki "nested" 3 (List.length (An.component_paths (Ty.Prod (Ty.Int, iprod))));
        checki "through-list" 2 (List.length (An.component_paths (Ty.List iprod))));
    Alcotest.test_case "whole-verdict-joins-components" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.unzip_snds_def ]) in
        let whole = An.global t "snds" ~arg:1 in
        let vs = An.global_components t "snds" ~arg:1 in
        checkb "whole is upper bound" true
          (List.for_all (fun (_, v) -> B.leq v.An.esc whole.An.esc) vs));
    Alcotest.test_case "local-with-pairs" `Quick (fun () ->
        (* in this call the pairs are fresh and only .snd escapes *)
        let src = wrapped [ Examples.unzip_snds_def ] in
        let t = solver_of src in
        let l = An.local t "snds" [ P.parse "[mkpair 1 [2], mkpair 3 [4]]" ] ~arg:1 in
        checkb "sound vs global" true
          (B.leq l.An.esc (An.global ~inst:l.An.inst t "snds" ~arg:1).An.esc));
    Alcotest.test_case "dynamic-pairs-escape" `Quick (fun () ->
        (* the snd component lists escape; the pairs and spine do not *)
        let src = wrapped [ Examples.unzip_snds_def ] in
        let ob = observe src "snds" [ "[mkpair 1 [2], mkpair 3 [4]]" ] 1 in
        Alcotest.check besc "element-level escape" (one 0) ob.Ex.esc;
        checki "two lists escape" 2 ob.Ex.escaped_cells);
    Alcotest.test_case "dynamic-swap" `Quick (fun () ->
        let src = wrapped [ Examples.swap_def ] in
        let ob = observe src "swap" [ "mkpair [1] [2]" ] 1 in
        Alcotest.check besc "components escape" (one 0) ob.Ex.esc);
    Alcotest.test_case "dynamic-zip-copies" `Quick (fun () ->
        let src = wrapped [ Examples.zip_def ] in
        let ob = observe src "zip" [ "[1, 2, 3]"; "[4, 5, 6]" ] 1 in
        Alcotest.check besc "spine copied" zero ob.Ex.esc);
  ]

(* ---- trees (the paper's "trees" extension) ----------------------------------- *)

let tree_units =
  [
    check_g "G(tmap)" (wrapped [ Examples.tmap_def ]) "tmap" [ zero; one 0 ];
    check_g "G(tinsert)" (wrapped [ Examples.tinsert_def ]) "tinsert" [ one 0; one 1 ];
    check_g "G(tsum)" (wrapped [ Examples.tsum_def ]) "tsum" [ zero ];
    check_g "G(mirror)" (wrapped [ Examples.mirror_def ]) "mirror" [ one 0 ];
    check_g "G(flatten)"
      (wrapped [ Examples.append_def; Examples.flatten_def ])
      "flatten" [ one 0 ];
    (* returning a subtree: the whole tree may escape (left is abstractly
       the identity, like cdr) *)
    check_g "G(lchild)" "letrec lchild t = left t in 0" "lchild" [ one 1 ];
    Alcotest.test_case "tree-invariance" `Quick (fun () ->
        (* Theorem 1 holds for tree instances too *)
        let t = solver_of (wrapped [ Examples.mirror_def ]) in
        let v1 = An.global t "mirror" ~arg:1 in
        let inst = Ty.Arrow (Ty.Tree ilist, Ty.Tree ilist) in
        let v2 = An.global ~inst t "mirror" ~arg:1 in
        checkb "both escape" true (An.escapes v1 && An.escapes v2);
        checki "s - k invariant" (An.non_escaping_top_spines v1)
          (An.non_escaping_top_spines v2));
    Alcotest.test_case "dynamic-tinsert-shares" `Quick (fun () ->
        (* inserting into a deep right spine shares the left subtree *)
        let src = wrapped [ Examples.tinsert_def ] in
        let ob =
          observe src "tinsert" [ "9"; "tinsert 1 (tinsert 5 (tinsert 3 leaf))" ] 2
        in
        checkb "some node escapes" true (ob.Ex.escaped_cells > 0);
        Alcotest.check besc "tree-level escape" (one 1) ob.Ex.esc);
    Alcotest.test_case "dynamic-mirror-copies" `Quick (fun () ->
        let src = wrapped [ Examples.mirror_def; Examples.tinsert_def ] in
        let ob = observe src "mirror" [ "tinsert 1 (tinsert 2 leaf)" ] 1 in
        ignore ob.Ex.total_cells;
        Alcotest.check besc "nothing escapes" zero ob.Ex.esc);
    Alcotest.test_case "dynamic-flatten" `Quick (fun () ->
        let src = wrapped [ Examples.append_def; Examples.flatten_def; Examples.tinsert_def ] in
        let ob = observe src "flatten" [ "tinsert 1 (tinsert 2 leaf)" ] 1 in
        Alcotest.check besc "labels only" zero ob.Ex.esc);
    Alcotest.test_case "tree-sharing-theorem" `Quick (fun () ->
        (* mirror rebuilds all nodes: its result is fully unshared *)
        let t = solver_of (wrapped [ Examples.mirror_def ]) in
        let i = Sh.result_unshared t "mirror" in
        checki "unshared" 1 i.Sh.unshared_top);
  ]

(* ---- the enumeration engine (ablation) ------------------------------------- *)

(* The global verdict of every argument of every definition agrees with
   the enumeration tables, which share no code with [Dvalue]; returns the
   number of arguments checked. *)
let enumeration_agrees src =
  let e = Escape.Enumerate.of_source src in
  let t = solver_of src in
  List.fold_left
    (fun n (name, _) ->
      List.fold_left
        (fun n (v : An.verdict) ->
          Alcotest.check besc
            (Printf.sprintf "%s arg %d in %s" name v.An.arg src)
            (Escape.Enumerate.global e name ~arg:v.An.arg)
            v.An.esc;
          n + 1)
        n (An.global_all t name))
    0 (Surface.of_string src).Surface.defs

let enumerate_units =
  [
    Alcotest.test_case "appendix-agreement" `Quick (fun () ->
        (* T8's first-order programs: append 2 + split 4 + ps 1; insert 2
           + isort 1; append, split, ps, create_list, length, sum *)
        List.iter
          (fun (src, n) -> checki "arguments checked" n (enumeration_agrees src))
          [
            (Examples.partition_sort_program, 7);
            (wrapped [ Examples.insert_def; Examples.isort_def ], 3);
            ( wrapped
                [ Examples.append_def; Examples.split_def; Examples.ps_def;
                  Examples.create_list_def; Examples.length_def; Examples.sum_def ],
              10 );
          ]);
    Alcotest.test_case "entry-count" `Quick (fun () ->
        (* d=2: chain has 4 points; append 4^2 + split 4^4 + ps 4^1 *)
        let e = Escape.Enumerate.of_source Examples.partition_sort_program in
        checki "entries" (16 + 256 + 4) (Escape.Enumerate.entries e);
        checki "d" 2 (Escape.Enumerate.d e));
    Alcotest.test_case "higher-order-rejected" `Quick (fun () ->
        match Escape.Enumerate.of_source (wrapped [ Examples.map_def ]) with
        | exception Escape.Enumerate.Higher_order _ -> ()
        | _ -> Alcotest.fail "map must be rejected");
    Alcotest.test_case "pairs-rejected" `Quick (fun () ->
        match Escape.Enumerate.of_source (wrapped [ Examples.swap_def ]) with
        | exception Escape.Enumerate.Higher_order _ -> ()
        | _ -> Alcotest.fail "pairs must be rejected");
    Alcotest.test_case "let-supported" `Quick (fun () ->
        let e = Escape.Enumerate.of_source (wrapped [ Examples.split_def; Examples.append_def; Examples.ps_def ]) in
        Alcotest.check besc "ps" (one 0) (Escape.Enumerate.global e "ps" ~arg:1));
    Alcotest.test_case "random-first-order-agreement" `Quick (fun () ->
        let rand = Random.State.make [| 7 |] in
        for _ = 1 to 40 do
          let def = QCheck.Gen.generate1 ~rand Gen.gen_def in
          checki def 1 (enumeration_agrees (wrapped [ def ]))
        done;
        (* curried definitions: every argument after the first is applied
           to an arrow-valued intermediate result *)
        let rand = Random.State.make [| 13 |] in
        for _ = 1 to 100 do
          let def = QCheck.Gen.generate1 ~rand Gen.gen_curried_def in
          let arity = if String.starts_with ~prefix:"f l a n " def then 3 else 2 in
          checki def arity (enumeration_agrees (wrapped [ def ]))
        done);
  ]

(* ---- reports ------------------------------------------------------------------ *)

let report_units =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln = 0 || go 0
  in
  [
    Alcotest.test_case "program-report" `Quick (fun () ->
        let t = solver_of Examples.partition_sort_program in
        let s = Format.asprintf "%a" Escape.Report.program t in
        checkb "append verdict" true (contains s "G(append, 1) = <1,0>");
        checkb "split verdict" true (contains s "G(split, 3) = <1,1>");
        checkb "sharing line" true (contains s "unshared in any call"));
    Alcotest.test_case "kleene-trace" `Quick (fun () ->
        let prog = Nml.Infer.infer_program (Surface.of_string Examples.partition_sort_program) in
        let s = Format.asprintf "%a" (Escape.Report.kleene_trace ?max_iters:None) prog in
        checkb "starts at bottom" true (contains s "iterate 0   append: <0,0> <0,0>");
        checkb "reaches fixpoint" true (contains s "append: <1,0> <1,1>");
        checkb "stabilizes" true (contains s "stable after 2 iterate(s)"));
    Alcotest.test_case "spines-figure" `Quick (fun () ->
        let v = Eval.run (Surface.of_string "[[1,2],[3,4]]") in
        let s = Format.asprintf "%a" Escape.Report.spines_figure v in
        checkb "outer" true (contains s "top=1 bottom=2");
        checkb "inner" true (contains s "top=2 bottom=1"));
    Alcotest.test_case "call-report" `Quick (fun () ->
        let t = solver_of Examples.map_pair_program in
        let s =
          Format.asprintf "%a"
            (fun ppf () ->
              Escape.Report.call ppf t "map"
                [ P.parse "pair"; P.parse "[[1,2]]" ])
            ()
        in
        checkb "local verdicts" true (contains s "L(map, 2)"));
    Alcotest.test_case "component-report" `Quick (fun () ->
        let t = solver_of (wrapped [ Examples.unzip_snds_def ]) in
        let s =
          Format.asprintf "%a" (fun ppf () -> Escape.Report.definition ppf t "snds") ()
        in
        checkb "fst stays" true (contains s "component .fst = <0,0>");
        checkb "snd goes" true (contains s "component .snd = <1,0>"));
  ]

(* ---- randomized safety: dynamic ⊑ local ⊑ global ------------------------- *)

let arb_safety =
  QCheck.make
    ~print:(fun (def, input) ->
      Printf.sprintf "%s  on [%s]" def (String.concat "," (List.map string_of_int input)))
    QCheck.Gen.(pair Gen.gen_def Gen.gen_input)

let safety_props =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"dynamic <= local <= global" ~count:300 arb_safety
        (fun (def, input) ->
          let src = Examples.wrap [ def ] "0" in
          let prog = Surface.of_string src in
          let input_src = Gen.input_src input in
          let t = Fix.of_source src in
          let g = An.global t "f" ~arg:1 in
          let l = An.local t "f" [ P.parse input_src ] ~arg:1 in
          let ob =
            Ex.observe_call ~fuel:200000 prog ~fname:"f" ~args:[ P.parse input_src ]
              ~arg:1
          in
          B.leq ob.Ex.esc l.An.esc && B.leq l.An.esc g.An.esc);
      QCheck.Test.make ~name:"polymorphic invariance on random defs" ~count:50
        (QCheck.make Gen.gen_def) (fun def ->
          (* Theorem 1 on the int list vs int list list instances; the
             random definitions are monomorphic in the element type only
             when they use arithmetic on car l, in which case the deeper
             instance is ill-typed and is skipped *)
          let src = Examples.wrap [ def ] "0" in
          let t = Fix.of_source src in
          let v1 = An.global t "f" ~arg:1 in
          let inst2 = Ty.Arrow (Ty.List (Ty.List Ty.Int), Ty.List (Ty.List Ty.Int)) in
          match An.global ~inst:inst2 t "f" ~arg:1 with
          | exception Nml.Infer.Error _ -> true
          | v2 -> (
              match (An.escapes v1, An.escapes v2) with
              | false, false -> true
              | true, true ->
                  An.non_escaping_top_spines v1 = An.non_escaping_top_spines v2
              | _ -> false));
    ]

let tree_safety_props =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"tree programs: dynamic <= local <= global" ~count:200
        (QCheck.make
           ~print:(fun (def, input) ->
             Printf.sprintf "%s  on %s" def (Gen.tree_input_src input))
           QCheck.Gen.(pair Gen.gen_tree_def Gen.gen_input))
        (fun (def, input) ->
          let src = Examples.wrap [ def ] "0" in
          let prog = Surface.of_string src in
          let input_src = Gen.tree_input_src input in
          let t = Fix.of_source src in
          let g = An.global t "f" ~arg:1 in
          let l = An.local t "f" [ P.parse input_src ] ~arg:1 in
          let ob =
            Ex.observe_call ~fuel:200000 prog ~fname:"f" ~args:[ P.parse input_src ]
              ~arg:1
          in
          B.leq ob.Ex.esc l.An.esc && B.leq l.An.esc g.An.esc);
    ]

let pair_safety_props =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"pair programs: dynamic <= local <= global" ~count:200
        (QCheck.make
           ~print:(fun (def, input) ->
             Printf.sprintf "%s  on %s" def (Gen.pair_input_src input))
           QCheck.Gen.(pair Gen.gen_pair_def Gen.gen_pair_input))
        (fun (def, input) ->
          let src = Examples.wrap [ def ] "0" in
          let prog = Surface.of_string src in
          let input_src = Gen.pair_input_src input in
          let t = Fix.of_source src in
          let g = An.global t "f" ~arg:1 in
          let l = An.local t "f" [ P.parse input_src ] ~arg:1 in
          let ob =
            Ex.observe_call ~fuel:200000 prog ~fname:"f" ~args:[ P.parse input_src ]
              ~arg:1
          in
          B.leq ob.Ex.esc l.An.esc && B.leq l.An.esc g.An.esc);
      QCheck.Test.make ~name:"pair programs: component verdicts below whole" ~count:80
        (QCheck.make ~print:(fun s -> s) Gen.gen_pair_def)
        (fun def ->
          let src = Examples.wrap [ def ] "0" in
          let t = Fix.of_source src in
          let whole = An.global t "f" ~arg:1 in
          List.for_all
            (fun (_, (v : An.verdict)) -> B.leq v.An.esc whole.An.esc)
            (An.global_components t "f" ~arg:1));
    ]

let () =
  Alcotest.run "escape"
    [
      ("besc", besc_units);
      ("besc-laws", besc_props);
      ("dvalue", dvalue_units);
      ("apply", apply_units);
      ("reads", reads_units);
      ("semantics-constants", semantics_units);
      ("global-test", analysis_units);
      ("fixpoint", fixpoint_units);
      ("local-test", local_units);
      ("polymorphic-invariance", invariance_units);
      ("sharing", sharing_units);
      ("exact-dynamic", exact_units);
      ("products", product_units);
      ("trees", tree_units);
      ("enumeration", enumerate_units);
      ("reports", report_units);
      ("safety", safety_props);
      ("pair-safety", pair_safety_props);
      ("tree-safety", tree_safety_props);
    ]
