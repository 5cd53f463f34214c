(* Parallel batch analysis: every input file is parsed, inferred and
   analyzed (through the summary cache when one is given) independently,
   on a pool of [Domain.spawn] workers pulling file indices from a shared
   atomic counter.  Workers share nothing but the striped store and the
   results array — each solver owns its private [Dvalue.state] — and
   every result carries its rendered output, so the driver can print a
   merged report in input order no matter which domain finished first.

   The pool is analysis-agnostic: [run ~analyze] distributes any
   per-file job with the same result shape (the lint engine rides it
   via [Lint.Batch]); the default job is the escape-summary analysis.

   Robustness: the per-file jobs protect themselves ([protect]), but the
   pool additionally guards every callback invocation, so an exception
   that escapes a job — a buggy callback, an asynchronous exception, a
   test-injected crash — becomes that one file's internal-error result
   instead of killing the worker domain and aborting the whole batch.
   A worker domain that dies anyway (or a [~stop] interruption) leaves
   its unprocessed slots to be reported as such, never as successes. *)

type result = {
  path : string;
  output : string;  (* what the corresponding subcommand prints on stdout *)
  errors : string;  (* ... and on stderr *)
  code : int;  (* 0 clean, 1 diagnostics/user error, 124 internal, 130 interrupted *)
  defs : int;
  findings : int;  (* lint findings (0 in analyze mode) *)
  evaluations : int;
  scc_hits : int;
  scc_misses : int;
}

let result ?(errors = "") ?(code = 0) ?(defs = 0) ?(findings = 0) ?(evaluations = 0)
    ?(scc_hits = 0) ?(scc_misses = 0) path output =
  { path; output; errors; code; defs; findings; evaluations; scc_hits; scc_misses }

(* The per-file part of the driver's exception regime ({!Nml.Front.failure}),
   with the rendered text captured instead of printed.  Every analysis
   callback runs under it so one bad file never takes down the pool. *)
let protect path f =
  match f () with
  | r -> r
  | exception e ->
      let code, errors = Nml.Front.failure e in
      result ~code ~errors path ""

exception Injected_crash of string

let () =
  Printexc.register_printer (function
    | Injected_crash path -> Some (Printf.sprintf "injected crash on %s" path)
    | _ -> None)

(* Test hooks for the robustness story, deliberately placed *outside*
   [protect]: NMLC_TEST_CRASH_FILE=<basename> raises through the job so
   the pool-level guard must catch it, NMLC_TEST_SLOW_MS=<ms> stalls
   every job so a signal can land mid-batch. *)
let test_hooks path =
  (match Sys.getenv_opt "NMLC_TEST_SLOW_MS" with
  | Some ms -> (
      match int_of_string_opt ms with
      | Some ms when ms > 0 -> (
          try Unix.sleepf (float_of_int ms /. 1000.)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | _ -> ())
  | None -> ());
  match Sys.getenv_opt "NMLC_TEST_CRASH_FILE" with
  | Some base when String.equal (Filename.basename path) base ->
      raise (Injected_crash path)
  | _ -> ()

let of_source ?store ~path src =
  let o = Summary.analyze ?store (Nml.Front.of_string ~file:path src) in
  result ~defs:(List.length o.Engine.summaries) ~evaluations:o.Engine.evaluations
    ~scc_hits:o.Engine.scc_hits ~scc_misses:o.Engine.scc_misses path
    (Format.asprintf "%a@." Escape.Report.pp_program_summaries o.Engine.summaries)

let analyze_source ?store ~path src = protect path (fun () -> of_source ?store ~path src)

let analyze_file ?store path =
  test_hooks path;
  protect path (fun () -> of_source ?store ~path (Nml.Front.read path))

let run ?analyze ?store ?(stop = fun () -> false) ~jobs paths =
  let analyze =
    match analyze with
    | Some f -> f
    | None -> fun ~store path -> analyze_file ?store path
  in
  (* the pool-level guard: a job that raises through its own protection
     still only costs its own slot *)
  let safe_analyze path =
    match analyze ~store path with
    | r -> r
    | exception e ->
        result ~code:124 path ""
          ~errors:(Printf.sprintf "nmlc: internal error: %s\n" (Printexc.to_string e))
  in
  let paths = Array.of_list paths in
  let n = Array.length paths in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      if not (stop ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (safe_analyze paths.(i));
          loop ()
        end
      end
    in
    loop ()
  in
  let workers = max 1 (min jobs n) in
  if workers = 1 then worker ()
  else begin
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter (fun d -> try Domain.join d with _ -> ()) spawned
  end;
  (* a [None] slot means the file was never analyzed: either [stop]
     interrupted the pool, or a worker domain died outright *)
  Array.to_list
    (Array.mapi
       (fun i r ->
         match r with
         | Some r -> r
         | None ->
             if stop () then result ~code:130 paths.(i) ""
             else
               result ~code:124 paths.(i) ""
                 ~errors:
                   (Printf.sprintf
                      "nmlc: internal error: worker died before analyzing %s\n"
                      paths.(i)))
       results)

let exit_code results =
  List.fold_left
    (fun acc r ->
      let rank c = if c = 124 then 3 else if c = 130 then 2 else min c 1 in
      if rank r.code > rank acc then r.code else acc)
    0 results
