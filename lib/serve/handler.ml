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

(* exactly what [nmlc vet] prints for the program ([source], else the
   file at [path]) *)
let vet_result ~path source =
  Cache.Batch.protect path (fun () ->
      let src = match source with Some src -> src | None -> Nml.Front.read path in
      let typed = Nml.Front.of_string ~file:path src in
      let ir = Pipeline.lower (Pipeline.Optimized Optimize.Transform.all) typed in
      let ds, summary =
        Vet.Verify.audit ~hints:(Pipeline.hints typed) ~source:typed.surface ir
      in
      let findings = summary.Vet.Verify.findings in
      Cache.Batch.result ~code:(min findings 1) ~findings path
        (Nml.Diagnostic.report ds
           (Printf.sprintf "vet: %d annotation(s) audited, %d finding(s)"
              summary.Vet.Verify.audited findings)))

let dispatch t (req : Protocol.request) =
  (* a path wins over a source *)
  let path, source =
    match req.path with Some path -> (path, None) | None -> ("<request>", req.source)
  in
  match req.meth with
  | Protocol.Analyze -> (
      match req.analysis with
      | None | Some "escape" -> (
          match source with
          | None -> Cache.Batch.analyze_file ?store:t.store path
          | Some src -> Cache.Batch.analyze_source ?store:t.store ~path src)
      | Some name -> (
          match Analyses.Registry.find name with
          | None ->
              (* a user error, not a crash: rendered as a code-1 diagnostic
                 through the same protection the default path uses *)
              Cache.Batch.protect "<request>" (fun () ->
                  failwith (Printf.sprintf "unknown analysis %s" name))
          | Some e -> Analyses.Registry.batch_job e ~store:t.store ?source path))
  | Protocol.Lint -> (
      match source with
      | None -> Lint.Batch.analyze_file ~store:t.store path
      | Some src -> Lint.Batch.analyze_source ~store:t.store ~path src)
  | Protocol.Vet -> vet_result ~path source
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
