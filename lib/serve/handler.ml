(* The per-request worker job: dispatches one parsed request to the
   same per-file entry points [nmlc batch] uses, so a successful server
   response is byte-identical to the batch output for the same input —
   the three-way differential (server ≡ warm batch ≡ cold batch) holds
   by construction, not by re-implementation.

   Toolchain failures of the analyzed program (parse errors, type
   errors, even internal errors) are *successful* RPCs whose result
   carries the rendered diagnostics and the batch exit code; only
   server-side conditions (expired deadline, quarantined input, injected
   crash) surface as SRV errors.  [Crash] and [Out_of_memory] are the
   two exceptions deliberately allowed to escape — they kill the worker
   domain so the supervisor's reap-respawn-quarantine path gets
   exercised for real. *)

module J = Nml.Json

exception Crash of string

let () =
  Printexc.register_printer (function
    | Crash msg -> Some (Printf.sprintf "injected crash: %s" msg)
    | _ -> None)

type t = {
  store : Cache.Store.t option;
  fault : Fault.t;
  quarantined : string -> bool;
}

(* The quarantine identity of a request's input.  Content-sensitive on
   purpose: a file that crashed a worker is quarantined as its current
   bytes, so fixing the file lifts the quarantine without a restart.
   The boom marker is part of the identity — a fault-injected crash
   quarantines only the boom-marked request, not the file itself. *)
let quarantine_key (req : Protocol.request) =
  (if req.boom then "boom:" else "")
  ^
  match req.source, req.path with
  | Some src, _ -> "src:" ^ Digest.to_hex (Digest.string src)
  | None, Some path ->
      let content =
        match In_channel.with_open_bin path In_channel.input_all with
        | s -> Digest.to_hex (Digest.string s)
        | exception Sys_error _ -> "unreadable"
      in
      Printf.sprintf "path:%s:%s" path content
  | None, None -> "none"

(* A [Slow_request] stall that honors cooperative cancellation: 5 ms
   slices, stopping as soon as the client abandons the job. *)
let cancellable_sleep (job : Pool.job) seconds =
  let stop_at = Pool.now () +. seconds in
  while
    (not (Atomic.get job.Pool.cancelled))
    && Pool.now () < stop_at
  do
    Thread.delay 0.005
  done

let result_json (r : Cache.Batch.result) =
  J.Obj
    [
      ("path", J.Str r.path);
      ("code", J.int r.code);
      ("defs", J.int r.defs);
      ("findings", J.int r.findings);
      ("evaluations", J.int r.evaluations);
      ("scc_hits", J.int r.scc_hits);
      ("scc_misses", J.int r.scc_misses);
      ("output", J.Str r.output);
      ("errors", J.Str r.errors);
    ]

let vet_result ~path src =
  Cache.Batch.protect path (fun () ->
      let s = Nml.Surface.of_string ~file:path src in
      let ir =
        (Optimize.Transform.optimize ~options:Optimize.Transform.all s)
          .Optimize.Transform.ir
      in
      let ds, summary = Vet.Verify.audit ~source:s ir in
      let rendered =
        if ds = [] then ""
        else
          Format.asprintf "%a@." (Nml.Diagnostic.render Nml.Diagnostic.Human) ds
      in
      {
        Cache.Batch.path;
        output =
          rendered
          ^ Printf.sprintf "vet: %d annotation(s) audited, %d finding(s)\n"
              summary.Vet.Verify.audited summary.Vet.Verify.findings;
        errors = "";
        code = (if summary.Vet.Verify.findings > 0 then 1 else 0);
        defs = 0;
        findings = summary.Vet.Verify.findings;
        evaluations = 0;
        scc_hits = 0;
        scc_misses = 0;
      })

let dispatch t (req : Protocol.request) =
  let read path = In_channel.with_open_text path In_channel.input_all in
  match req.meth with
  | Protocol.Analyze -> (
      match req.analysis with
      | None | Some "escape" -> (
          match req.path, req.source with
          | Some path, _ -> Cache.Batch.analyze_file ?store:t.store path
          | None, Some src ->
              Cache.Batch.analyze_source ?store:t.store ~path:"<request>" src
          | None, None -> assert false (* rejected by Protocol.parse *))
      | Some name -> (
          match Analyses.Registry.find name with
          | None ->
              (* a user error, not a crash: rendered as a code-1 diagnostic
                 through the same protection the default path uses *)
              Cache.Batch.protect "<request>" (fun () ->
                  failwith (Printf.sprintf "unknown analysis %s" name))
          | Some e -> (
              match req.path, req.source with
              | Some path, _ -> Analyses.Registry.batch_job e ~store:t.store path
              | None, Some src ->
                  Cache.Batch.protect "<request>" (fun () ->
                      let prog =
                        Nml.Infer.infer_program
                          (Nml.Surface.of_string ~file:"<request>" src)
                      in
                      let o = e.Analyses.Registry.run ?store:t.store prog in
                      {
                        Cache.Batch.path = "<request>";
                        output = o.Analyses.Registry.output;
                        errors = "";
                        code = 0;
                        defs = o.Analyses.Registry.defs;
                        findings = 0;
                        evaluations = o.Analyses.Registry.evaluations;
                        scc_hits = o.Analyses.Registry.scc_hits;
                        scc_misses = o.Analyses.Registry.scc_misses;
                      })
              | None, None -> assert false)))
  | Protocol.Lint -> (
      match req.path, req.source with
      | Some path, _ -> Lint.Batch.analyze_file ~store:t.store path
      | None, Some src -> Lint.Batch.analyze_source ~store:t.store ~path:"<request>" src
      | None, None -> assert false)
  | Protocol.Vet -> (
      match req.path, req.source with
      | Some path, _ ->
          Cache.Batch.protect path (fun () -> vet_result ~path (read path))
      | None, Some src -> vet_result ~path:"<request>" src
      | None, None -> assert false)
  | Protocol.Status | Protocol.Shutdown ->
      assert false (* answered inline by the server, never queued *)

let handle t (job : Pool.job) : Pool.resp =
  let req = job.Pool.req in
  let err ?retry_after_ms ~code msg =
    { Pool.body = Protocol.error ?id:req.Protocol.id ?retry_after_ms ~code msg;
      is_error = true }
  in
  if Pool.expired job then
    err ~code:Protocol.srv_deadline "deadline exceeded before analysis began"
  else if t.quarantined job.Pool.key then
    err ~code:Protocol.srv_quarantined
      "input quarantined after crashing a worker; edit it to lift the quarantine"
  else begin
    if t.fault = Fault.Slow_request then cancellable_sleep job 0.25;
    (match t.fault, req.Protocol.boom with
    | Fault.Worker_crash, true -> raise (Crash "worker-crash fault armed and boom set")
    | Fault.Oom, true -> raise Out_of_memory
    | _ -> ());
    let r = dispatch t req in
    { Pool.body = Protocol.ok ?id:req.Protocol.id (result_json r); is_error = false }
  end
