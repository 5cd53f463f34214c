(* Tests for the analysis daemon and the robustness work around it:
   framing, protocol, the load-shedding queue, the in-memory store tier
   (write-back, flush, corruption self-heal), concurrent-writer torn
   reads, crash isolation in the batch pool, and — against a real
   in-process server on a Unix socket — the chaos storm with its
   three-way differential oracle (server responses ≡ warm batch ≡ cold
   batch), deadlines, quarantine, load shedding and the drain. *)

module J = Nml.Json
module Frame = Serve.Frame
module Protocol = Serve.Protocol
module Squeue = Serve.Squeue
module Server = Serve.Server
module Fault = Serve.Fault
module Store = Cache.Store
module Batch = Cache.Batch
module Examples = Nml.Examples

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nmlc-%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let d = fresh_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf d with Sys_error _ -> ()) (fun () -> f d)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

(* ---- framing ---------------------------------------------------------------- *)

let frame_units =
  let pipe_roundtrip writer =
    let r, w = Unix.pipe () in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ r; w ])
      (fun () ->
        writer w;
        Unix.close w;
        Frame.read r)
  in
  [
    Alcotest.test_case "roundtrip" `Quick (fun () ->
        let payload = "{\"id\": 1}\n" in
        match
          pipe_roundtrip (fun w ->
              ignore
                (Unix.write_substring w (Frame.encode payload) 0
                   (String.length (Frame.encode payload))))
        with
        | Ok got -> checks "payload" payload got
        | Error _ -> Alcotest.fail "expected the payload back");
    Alcotest.test_case "eof-at-boundary-is-closed" `Quick (fun () ->
        match pipe_roundtrip (fun _ -> ()) with
        | Error Frame.Closed -> ()
        | _ -> Alcotest.fail "expected Closed");
    Alcotest.test_case "eof-mid-frame-is-malformed" `Quick (fun () ->
        match
          pipe_roundtrip (fun w -> ignore (Unix.write_substring w "100\nabc" 0 7))
        with
        | Error (Frame.Malformed _) -> ()
        | _ -> Alcotest.fail "expected Malformed");
    Alcotest.test_case "bad-length-line-is-malformed" `Quick (fun () ->
        match
          pipe_roundtrip (fun w -> ignore (Unix.write_substring w "nope\n{}" 0 7))
        with
        | Error (Frame.Malformed _) -> ()
        | _ -> Alcotest.fail "expected Malformed");
    Alcotest.test_case "over-limit-is-oversized" `Quick (fun () ->
        match
          pipe_roundtrip (fun w ->
              ignore (Unix.write_substring w "99999999\n" 0 9))
        with
        | Error (Frame.Oversized n) -> checki "declared" 99999999 n
        | _ -> Alcotest.fail "expected Oversized");
  ]

(* ---- protocol --------------------------------------------------------------- *)

let protocol_units =
  [
    Alcotest.test_case "parses-a-full-request" `Quick (fun () ->
        let payload =
          J.to_string
            (J.Obj
               [
                 ("id", J.int 7);
                 ("method", J.Str "analyze");
                 ( "params",
                   J.Obj
                     [
                       ("path", J.Str "a.nml");
                       ("deadline_ms", J.int 250);
                       ("boom", J.Bool true);
                     ] );
               ])
        in
        match Protocol.parse payload with
        | Ok req ->
            checkb "method" true (req.Protocol.meth = Protocol.Analyze);
            checks "path" "a.nml" (Option.get req.Protocol.path);
            checki "deadline" 250 (Option.get req.Protocol.deadline_ms);
            checkb "boom" true req.Protocol.boom
        | Error _ -> Alcotest.fail "expected a request");
    Alcotest.test_case "garbage-is-srv001" `Quick (fun () ->
        match Protocol.parse "]]]" with
        | Error (None, code, _) -> checks "code" Protocol.srv_malformed code
        | _ -> Alcotest.fail "expected SRV001");
    Alcotest.test_case "unknown-method-is-srv002-with-id" `Quick (fun () ->
        match
          Protocol.parse
            (J.to_string
               (J.Obj [ ("id", J.int 3); ("method", J.Str "transmogrify") ]))
        with
        | Error (Some (J.Num n), code, _) ->
            checki "id echoed" 3 (int_of_float n);
            checks "code" Protocol.srv_invalid code
        | _ -> Alcotest.fail "expected SRV002 with the id");
    Alcotest.test_case "analyze-needs-an-input" `Quick (fun () ->
        match
          Protocol.parse
            (J.to_string (J.Obj [ ("method", J.Str "analyze") ]))
        with
        | Error (_, code, _) -> checks "code" Protocol.srv_invalid code
        | Ok _ -> Alcotest.fail "expected SRV002");
    Alcotest.test_case "error-rendering-carries-retry-hint" `Quick (fun () ->
        let resp =
          Protocol.error ~id:(J.int 1) ~retry_after_ms:150
            ~code:Protocol.srv_overload "shed"
        in
        match J.member "error" (J.parse resp) with
        | Some err ->
            checkb "code" true
              (J.member "code" err = Some (J.Str Protocol.srv_overload));
            checkb "retry" true (J.member "retry_after_ms" err = Some (J.int 150))
        | None -> Alcotest.fail "expected an error object");
  ]

(* ---- the load-shedding queue ------------------------------------------------ *)

let squeue_units =
  [
    Alcotest.test_case "sheds-the-oldest" `Quick (fun () ->
        let q = Squeue.create ~cap:2 in
        checkb "a" true (Squeue.push q 1 = `Ok);
        checkb "b" true (Squeue.push q 2 = `Ok);
        (match Squeue.push q 3 with
        | `Shed 1 -> ()
        | _ -> Alcotest.fail "expected to shed the oldest");
        checkb "pop 2" true (Squeue.pop q = Some 2);
        checkb "pop 3" true (Squeue.pop q = Some 3));
    Alcotest.test_case "close-drains-then-stops" `Quick (fun () ->
        let q = Squeue.create ~cap:4 in
        ignore (Squeue.push q 1);
        Squeue.close q;
        checkb "refused" true (Squeue.push q 2 = `Closed);
        checkb "drains" true (Squeue.pop q = Some 1);
        checkb "stops" true (Squeue.pop q = None));
  ]

(* ---- the in-memory store tier ----------------------------------------------- *)

let infer src = Nml.Infer.infer_program (Nml.Surface.of_string src)

let render summaries =
  Format.asprintf "%a@." Escape.Report.pp_program_summaries summaries

let store_units =
  [
    Alcotest.test_case "write-back-defers-then-flushes" `Quick (fun () ->
        with_dir "wb" @@ fun dir ->
        let root = Filename.concat dir "cache" in
        let store = Store.create ~memory:true ~write_back:true root in
        ignore (Cache.Summary.analyze ~store (infer Examples.map_pair_program));
        checkb "dirty entries pending" true (Store.dirty_entries store > 0);
        let cold_disk = Store.create root in
        (* nothing on disk yet: a second process sees nothing *)
        checki "nothing published" 0
          (if Sys.file_exists root then Array.length (Sys.readdir root) else 0);
        let flushed = Store.flush store in
        checkb "flushed" true (flushed > 0);
        checki "nothing left dirty" 0 (Store.dirty_entries store);
        (* now a cold reader analyzes for free *)
        let o = Cache.Summary.analyze ~store:cold_disk (infer Examples.map_pair_program) in
        checki "warm from disk" 0 o.Cache.Engine.evaluations);
    Alcotest.test_case "memory-corruption-self-heals-from-disk" `Quick (fun () ->
        with_dir "heal" @@ fun dir ->
        let store = Store.create ~memory:true (Filename.concat dir "cache") in
        let cold = Cache.Summary.analyze ~store (infer Examples.partition_sort_program) in
        let before = Store.memory_bytes store in
        (* each record keeps the first half of its bytes *)
        let corrupted = Store.corrupt_memory store in
        checkb "something to corrupt" true (corrupted > 0);
        checkb "the tier halved" true (Store.memory_bytes store <= before / 2);
        let healed =
          Cache.Summary.analyze ~store (infer Examples.partition_sort_program)
        in
        checki "no re-solve: healed from disk" 0 healed.Cache.Engine.evaluations;
        checki "every scc a hit" 0 healed.Cache.Engine.scc_misses;
        checki "the tier is whole again" before (Store.memory_bytes store);
        checks "identical report" (render cold.Cache.Engine.summaries)
          (render healed.Cache.Engine.summaries));
    Alcotest.test_case "corrupted-memory-without-disk-re-solves" `Quick (fun () ->
        with_dir "resolve" @@ fun dir ->
        (* write-back + corruption before any flush: the disk has
           nothing, so healing falls back to a fresh solve *)
        let store =
          Store.create ~memory:true ~write_back:true (Filename.concat dir "cache")
        in
        let cold = Cache.Summary.analyze ~store (infer Examples.rev_program) in
        ignore (Store.corrupt_memory store);
        let again = Cache.Summary.analyze ~store (infer Examples.rev_program) in
        checkb "re-solved" true (again.Cache.Engine.evaluations > 0);
        checks "identical report" (render cold.Cache.Engine.summaries)
          (render again.Cache.Engine.summaries));
    Alcotest.test_case "memory-bytes-are-the-records-bytes" `Quick (fun () ->
        with_dir "bytes" @@ fun dir ->
        let store =
          Store.create ~memory:true ~write_back:true (Filename.concat dir "cache")
        in
        let prog = infer Examples.partition_sort_program in
        ignore (Cache.Summary.analyze ~store prog);
        let keys = Cache.Skey.sccs (Cache.Skey.of_program prog) in
        checki "one entry per scc" (List.length keys) (Store.memory_entries store);
        let summed =
          List.fold_left
            (fun acc (key, _) ->
              match Store.load store ~key with
              | Some j -> acc + String.length (J.to_string j)
              | None -> Alcotest.fail "expected a saved record")
            0 keys
        in
        checkb "something saved" true (summed > 0);
        checki "memory_bytes" summed (Store.memory_bytes store));
  ]

(* ---- satellite: concurrent writers never produce a torn read ---------------- *)

let stress_units =
  [
    Alcotest.test_case "two-writers-one-root-no-torn-reads" `Slow (fun () ->
        with_dir "stress" @@ fun dir ->
        let root = Filename.concat dir "cache" in
        let keys = Array.init 5 (Printf.sprintf "shared-key-%d") in
        (* a deliberately chunky value so a torn write would be visible *)
        let value tag i =
          J.Obj
            [
              ("writer", J.Str tag);
              ("i", J.int i);
              ("pad", J.Str (String.make 4096 'x'));
            ]
        in
        let anomalies = Atomic.make 0 in
        let writer tag () =
          (* separate [Store.t] per domain: emulates two processes
             sharing one cache root *)
          let store = Store.create root in
          for i = 1 to 200 do
            let key = keys.(i mod Array.length keys) in
            Store.save store ~key (value tag i);
            match Store.load store ~key with
            | None -> ()  (* a miss is always legal, a torn read never *)
            | Some (J.Obj fields) ->
                if
                  (match List.assoc_opt "writer" fields with
                  | Some (J.Str ("a" | "b")) -> false
                  | _ -> true)
                  ||
                  match List.assoc_opt "pad" fields with
                  | Some (J.Str p) -> String.length p <> 4096
                  | _ -> true
                then Atomic.incr anomalies
            | Some _ -> Atomic.incr anomalies
          done
        in
        let d1 = Domain.spawn (writer "a") in
        let d2 = Domain.spawn (writer "b") in
        Domain.join d1;
        Domain.join d2;
        checki "no torn reads" 0 (Atomic.get anomalies);
        (* the shards hold only published entries, no staging debris *)
        let store = Store.create root in
        checki "no staging leftovers" 0 (Store.cleanup_tmp store);
        Array.iter
          (fun key -> checkb key true (Store.load store ~key <> None))
          keys);
  ]

(* ---- the job handoff: a completion wakes its waiter through the pipe -------- *)

module Pool = Serve.Pool

let analyze_req =
  match
    Protocol.parse
      (J.to_string
         (J.Obj
            [
              ("method", J.Str "analyze");
              ("params", J.Obj [ ("path", J.Str "a.nml") ]);
            ]))
  with
  | Ok req -> req
  | Error _ -> failwith "analyze_req"

let resp body = { Pool.body; is_error = false }

let with_waker f =
  let r, w = Pool.waker () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () -> f r w)

let job ?(deadline_s = 5.) w =
  Pool.make_job ~req:analyze_req ~key:"k"
    ~deadline:(Some (Pool.now () +. deadline_s))
    ~waker:w

let pipe_empty r =
  match Unix.select [ r ] [] [] 0. with [], _, _ -> true | _ -> false

(* Completes [job] with [body] from another domain after [delay] s. *)
let complete_later ~delay job body =
  Domain.spawn (fun () ->
      Unix.sleepf delay;
      ignore (Pool.complete job (resp body)))

let body_of = function
  | Some r -> r.Pool.body
  | None -> Alcotest.fail "await returned None"

let handoff_units =
  [
    Alcotest.test_case "posted-before-await-returns-without-blocking" `Quick
      (fun () ->
        with_waker @@ fun r w ->
        let j = job w in
        checkb "accepted" true (Pool.complete j (resp "early"));
        (* swallow the wake byte: only the cell check can return now *)
        ignore (Unix.read r (Bytes.create 8) 0 8);
        let t0 = Pool.now () in
        checks "reply" "early" (body_of (Pool.await j r));
        checkb "did not wait for the deadline" true (Pool.now () -. t0 < 1.));
    Alcotest.test_case "cross-domain-completion-wakes-the-waiter" `Quick
      (fun () ->
        with_waker @@ fun r w ->
        let j = job ~deadline_s:30. w in
        let t0 = Pool.now () in
        let d = complete_later ~delay:0.05 j "late" in
        let got = Pool.await j r in
        let waited = Pool.now () -. t0 in
        Domain.join d;
        checks "reply" "late" (body_of got);
        checkb "woken well before the 30 s deadline" true (waited < 5.));
    Alcotest.test_case "abandoned-job-completes-silently" `Quick (fun () ->
        with_waker @@ fun r w ->
        let j = job w in
        Pool.abandon j;
        checkb "complete refused" false (Pool.complete j (resp "stale"));
        checkb "no wake byte" true (pipe_empty r));
    Alcotest.test_case "leftover-byte-is-a-spurious-wakeup" `Quick (fun () ->
        with_waker @@ fun r w ->
        (* the first job's byte is never drained: its reply was already
           posted when the waiter looked *)
        let first = job w in
        ignore (Pool.complete first (resp "first"));
        checks "first" "first" (body_of (Pool.await first r));
        checkb "byte left behind" false (pipe_empty r);
        let second = job w in
        let d = complete_later ~delay:0.05 second "second" in
        let got = Pool.await second r in
        Domain.join d;
        checks "the second job's own reply" "second" (body_of got));
  ]

(* ---- satellite: one crashing file never aborts the pool --------------------- *)

let pool_units =
  [
    Alcotest.test_case "crashing-job-costs-only-its-slot" `Quick (fun () ->
        with_dir "crash" @@ fun dir ->
        let files =
          List.map
            (fun (name, src) ->
              let p = Filename.concat dir name in
              write_file p src;
              p)
            [
              ("a.nml", Examples.map_pair_program);
              ("b.nml", Examples.rev_program);
              ("c.nml", Examples.partition_sort_program);
            ]
        in
        let analyze ~store path =
          if Filename.basename path = "b.nml" then failwith "kaboom"
          else Batch.analyze_file ?store path
        in
        let rs = Batch.run ~analyze ~jobs:2 files in
        (match rs with
        | [ a; b; c ] ->
            checki "a ok" 0 a.Batch.code;
            checki "b internal error" 124 b.Batch.code;
            checkb "b diagnosed" true (b.Batch.errors <> "");
            checki "c ok" 0 c.Batch.code
        | _ -> Alcotest.fail "expected three results");
        checki "batch exit code" 124 (Batch.exit_code rs));
    Alcotest.test_case "raising-through-protect-is-contained" `Quick (fun () ->
        let rs =
          Batch.run
            ~analyze:(fun ~store:_ _ -> raise (Batch.Injected_crash "x"))
            ~jobs:1 [ "x.nml" ]
        in
        match rs with
        | [ r ] -> checki "code" 124 r.Batch.code
        | _ -> Alcotest.fail "expected one result");
  ]
  @ handoff_units

(* ---- the in-process server -------------------------------------------------- *)

let corpus dir =
  List.map
    (fun (name, src) ->
      let p = Filename.concat dir name in
      write_file p src;
      p)
    [
      ("map_pair.nml", Examples.map_pair_program);
      ("rev.nml", Examples.rev_program);
      ("psort.nml", Examples.partition_sort_program);
      ( "mixed.nml",
        Examples.wrap
          [ Examples.append_def; Examples.length_def; Examples.sum_def ]
          "sum (append [1] [2])" );
      ("bad.nml", "letrec f l = cons x nil in f [1]");
    ]

let server_config ?(fault = Fault.None_) ?(jobs = 2) ?(queue_cap = 64)
    ?(deadline_ms = 30_000) ~dir () =
  let sock = Filename.concat dir "s.sock" in
  let store =
    Store.create ~memory:true ~write_back:true (Filename.concat dir "cache")
  in
  ( sock,
    store,
    {
      (Server.default_config (Server.Socket sock)) with
      Server.jobs;
      queue_cap;
      default_deadline_ms = deadline_ms;
      store = Some store;
      fault;
      handle_signals = false;
      quiet = true;
    } )

let wait_for_socket sock =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done

(* one request/response on an open connection *)
let ask fd payload =
  if not (Frame.write fd payload) then Alcotest.fail "request not written";
  match Frame.read fd with
  | Ok resp -> J.parse resp
  | Error e -> Alcotest.fail (Format.asprintf "no response: %a" Frame.pp_error e)

(* one request/response over a fresh connection *)
let rpc sock payload =
  let fd = Chaos_client.connect sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> ask fd payload)

let request ?(id = 1) ?boom ?deadline_ms ~meth path =
  let params =
    [ ("path", J.Str path) ]
    @ (match deadline_ms with Some d -> [ ("deadline_ms", J.int d) ] | None -> [])
    @ match boom with Some true -> [ ("boom", J.Bool true) ] | _ -> []
  in
  J.to_string
    (J.Obj [ ("id", J.int id); ("method", J.Str meth); ("params", J.Obj params) ])

let call sock ?boom ?deadline_ms ~meth path =
  rpc sock (request ?boom ?deadline_ms ~meth path)

let error_code json =
  match J.member "error" json with
  | Some err -> (
      match J.member "code" err with Some (J.Str c) -> Some c | _ -> None)
  | None -> None

let with_server ?fault ?jobs ?queue_cap ?deadline_ms f =
  with_dir "srv" @@ fun dir ->
  let sock, store, cfg = server_config ?fault ?jobs ?queue_cap ?deadline_ms ~dir () in
  let stop = Server.spawn cfg in
  wait_for_socket sock;
  Fun.protect ~finally:stop (fun () -> f ~dir ~sock ~store)

(* the batch rendering of a result, in the chaos client's format *)
let batch_rendering (r : Batch.result) =
  Printf.sprintf "[%d]\n%s%s" r.Batch.code r.Batch.output r.Batch.errors

let server_units =
  [
    Alcotest.test_case "chaos-storm-with-three-way-differential" `Slow (fun () ->
        with_server @@ fun ~dir ~sock ~store:_ ->
        let files = corpus dir in
        let o = Chaos_client.storm ~socket:sock ~files ~seed:20260809 ~count:600 in
        checkb "at least 500 requests" true (o.Chaos_client.sent >= 500);
        checkb "mostly served" true (o.Chaos_client.results > 200);
        (match o.Chaos_client.anomalies with
        | [] -> ()
        | a :: _ ->
            Alcotest.fail
              (Printf.sprintf "%d protocol anomal(ies), first: %s"
                 (List.length o.Chaos_client.anomalies)
                 a));
        (* the malformed paths were actually exercised *)
        let count code =
          Option.value ~default:0 (List.assoc_opt code o.Chaos_client.errors)
        in
        checkb "SRV001 seen" true (count "SRV001" > 0);
        checkb "SRV002 seen" true (count "SRV002" > 0);
        checkb "SRV003 seen" true (count "SRV003" > 0);
        (* three-way differential: every path's server responses are one
           distinct rendering, equal to the cold and the warm batch *)
        with_dir "diff" @@ fun cache_dir ->
        let warm_store = Store.create (Filename.concat cache_dir "cache") in
        List.iter
          (fun path ->
            match Hashtbl.find_opt o.Chaos_client.outputs path with
            | None | Some [] ->
                Alcotest.fail (path ^ ": never analyzed by the storm")
            | Some (_ :: _ :: _) ->
                Alcotest.fail (path ^ ": server responses disagree with each other")
            | Some [ served ] ->
                let cold = batch_rendering (Batch.analyze_file path) in
                ignore (Batch.analyze_file ~store:warm_store path);
                let warm =
                  batch_rendering (Batch.analyze_file ~store:warm_store path)
                in
                checks (path ^ " server = cold batch") cold served;
                checks (path ^ " server = warm batch") warm served)
          files);
    Alcotest.test_case "worker-crash-is-reaped-and-quarantined" `Slow (fun () ->
        with_server ~fault:Fault.Worker_crash ~jobs:1 @@ fun ~dir ~sock ~store:_ ->
        let files = corpus dir in
        let victim = List.hd files in
        (* first boom: the worker dies, the supervisor answers SRV006 *)
        checkb "SRV006" true (error_code (call sock ~boom:true ~meth:"analyze" victim) = Some "SRV006");
        (* same input again: quarantined without another crash *)
        checkb "SRV007" true (error_code (call sock ~boom:true ~meth:"analyze" victim) = Some "SRV007");
        (* the respawned worker serves ordinary requests *)
        checkb "still serving" true (error_code (call sock ~meth:"analyze" victim) = None);
        (* and the counters saw the crash and the respawn *)
        match J.member "result" (rpc sock (J.to_string (J.Obj [ ("method", J.Str "status") ]))) with
        | Some st ->
            let n k = match J.member k st with Some (J.Num f) -> int_of_float f | _ -> -1 in
            checkb "crashes counted" true (n "crashes" >= 1);
            checkb "respawns counted" true (n "respawns" >= 1);
            checkb "quarantine counted" true (n "quarantined" >= 1)
        | None -> Alcotest.fail "no status result");
    Alcotest.test_case "storm-survives-injected-crashes" `Slow (fun () ->
        with_server ~fault:Fault.Worker_crash ~jobs:2 @@ fun ~dir ~sock ~store:_ ->
        let files = corpus dir in
        let o = Chaos_client.storm ~socket:sock ~files ~seed:42 ~count:500 in
        checkb "no anomalies" true (o.Chaos_client.anomalies = []);
        checkb "crash responses seen" true
          (List.exists
             (fun (c, _) -> c = "SRV006" || c = "SRV007")
             o.Chaos_client.errors);
        checkb "still mostly served" true (o.Chaos_client.results > 200));
    Alcotest.test_case "deadline-expires-with-srv004" `Quick (fun () ->
        with_server ~fault:Fault.Slow_request ~jobs:1 @@ fun ~dir ~sock ~store:_ ->
        let files = corpus dir in
        let json = call sock ~deadline_ms:30 ~meth:"analyze" (List.hd files) in
        checkb "SRV004" true (error_code json = Some "SRV004"));
    Alcotest.test_case "persistent-connection-survives-a-timeout" `Quick (fun () ->
        with_server ~fault:Fault.Slow_request ~jobs:1 @@ fun ~dir ~sock ~store:_ ->
        let path = List.hd (corpus dir) in
        let fd_count () =
          if Sys.file_exists "/proc/self/fd" then
            Some (Array.length (Sys.readdir "/proc/self/fd"))
          else None
        in
        let before = fd_count () in
        let fd = Chaos_client.connect sock in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let id json =
              match J.member "id" json with
              | Some (J.Num n) -> int_of_float n
              | _ -> -1
            in
            let first = ask fd (request ~id:1 ~deadline_ms:30 ~meth:"analyze" path) in
            checkb "id 1 times out" true (error_code first = Some "SRV004");
            (* the late result of id 1 must neither answer id 2 nor
               leave the connection's waker unusable *)
            let second =
              ask fd (request ~id:2 ~deadline_ms:10_000 ~meth:"analyze" path)
            in
            checkb "id 2 served" true (error_code second = None);
            checki "id 2 echoed" 2 (id second);
            let third =
              ask fd (request ~id:3 ~deadline_ms:10_000 ~meth:"analyze" path)
            in
            checkb "id 3 served" true (error_code third = None);
            checki "id 3 echoed" 3 (id third));
        for _ = 1 to 50 do
          ignore (rpc sock (J.to_string (J.Obj [ ("method", J.Str "status") ])))
        done;
        match before with
        | None -> ()  (* no /proc: the descriptor check is skipped *)
        | Some before ->
            (* connection threads close their descriptors after the
               client's EOF, asynchronously *)
            let deadline = Unix.gettimeofday () +. 5. in
            let rec settle () =
              match fd_count () with
              | Some n when n > before && Unix.gettimeofday () < deadline ->
                  Thread.delay 0.02;
                  settle ()
              | n -> Option.value ~default:before n
            in
            let after = settle () in
            if after > before then
              Alcotest.fail
                (Printf.sprintf "%d descriptors leaked over 51 connections"
                   (after - before)));
    Alcotest.test_case "overload-sheds-with-retry-hint" `Quick (fun () ->
        with_server ~fault:Fault.Slow_request ~jobs:1 ~queue_cap:1
        @@ fun ~dir ~sock ~store:_ ->
        let files = corpus dir in
        let path = List.hd files in
        let responses = Array.make 3 None in
        let threads = ref [] in
        for i = 0 to 2 do
          threads :=
            Thread.create
              (fun () ->
                responses.(i) <-
                  Some (call sock ~deadline_ms:10_000 ~meth:"analyze" path))
              ()
            :: !threads;
          Thread.delay 0.03
        done;
        List.iter Thread.join !threads;
        let codes =
          Array.to_list responses
          |> List.map (function
               | None -> Alcotest.fail "a request got no response"
               | Some json -> error_code json)
        in
        checkb "someone was shed" true (List.mem (Some "SRV005") codes);
        checkb "someone was served" true (List.mem None codes);
        (* the shed response carries the retry-after contract *)
        Array.iter
          (fun r ->
            match r with
            | Some json when error_code json = Some "SRV005" -> (
                match J.member "error" json with
                | Some err ->
                    checkb "retry_after_ms present" true
                      (J.member "retry_after_ms" err <> None)
                | None -> ())
            | _ -> ())
          responses);
    Alcotest.test_case "cache-corruption-degrades-gracefully" `Slow (fun () ->
        with_server ~fault:Fault.Cache_corrupt @@ fun ~dir ~sock ~store:_ ->
        let files = corpus dir in
        let path = List.nth files 2 in
        let renderings = Hashtbl.create 1 in
        for _ = 1 to 12 do
          match J.member "result" (call sock ~meth:"analyze" path) with
          | Some r ->
              let s k = match J.member k r with Some (J.Str v) -> v | _ -> "" in
              Hashtbl.replace renderings (s "output" ^ s "errors") ()
          | None -> Alcotest.fail "corrupted cache produced an error response"
        done;
        checki "one distinct report despite corruption" 1 (Hashtbl.length renderings));
    Alcotest.test_case "drain-flushes-dirty-summaries" `Quick (fun () ->
        with_dir "drain" @@ fun dir ->
        let sock, store, cfg = server_config ~dir () in
        let stop = Server.spawn cfg in
        wait_for_socket sock;
        let files = corpus dir in
        checkb "served" true
          (error_code (call sock ~meth:"analyze" (List.hd files)) = None);
        checkb "dirty before drain" true (Store.dirty_entries store > 0);
        stop ();
        checki "flushed on drain" 0 (Store.dirty_entries store);
        checkb "socket unlinked" true (not (Sys.file_exists sock));
        (* a cold process is warm from the flushed entries *)
        let disk = Store.create (Store.root store) in
        let r = Batch.analyze_file ~store:disk (List.hd files) in
        checki "warm from the drained store" 0 r.Batch.evaluations);
    Alcotest.test_case "draining-server-refuses-new-work" `Quick (fun () ->
        with_server @@ fun ~dir ~sock ~store:_ ->
        ignore dir;
        (* hold a live connection open across the shutdown: its later
           requests must be answered SRV008, not dropped *)
        let fd = Chaos_client.connect sock in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let ask = ask fd in
            (* prove the connection is accepted and served first *)
            checkb "status served" true
              (J.member "result" (ask (J.to_string (J.Obj [ ("method", J.Str "status") ]))) <> None);
            (* shutdown arrives on a different connection *)
            checkb "shutdown acknowledged" true
              (J.member "result"
                 (rpc sock (J.to_string (J.Obj [ ("method", J.Str "shutdown") ])))
              <> None);
            match
              error_code
                (ask
                   (J.to_string
                      (J.Obj
                         [
                           ("method", J.Str "analyze");
                           ("params", J.Obj [ ("path", J.Str "x.nml") ]);
                         ])))
            with
            | Some "SRV008" -> ()
            | c ->
                Alcotest.fail
                  ("expected SRV008, got " ^ Option.value ~default:"a result" c)));
  ]

let () =
  Alcotest.run "serve"
    [
      ("frame", frame_units);
      ("protocol", protocol_units);
      ("squeue", squeue_units);
      ("store", store_units);
      ("stress", stress_units);
      ("pool", pool_units);
      ("server", server_units);
    ]
