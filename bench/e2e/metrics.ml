(* The metric glossary, sample statistics, the per-workload result
   record, and [--compare]. *)

module J = Nml.Json

(* Every end-to-end metric is better lower. *)
type def = {
  name : string;
  unit : string;
  bound : float;
      (* share of the baseline median by which the metric may get worse;
         0 means the value must repeat exactly *)
}

let def name unit bound = { name; unit; bound }

(* End-to-end metrics every workload reports; BENCHMARK.json lists the
   same names, units and bounds. *)
let end_to_end =
  [
    def "setup_s" "s" 0.25;
    def "pass_ms" "ms" 0.25;
    def "latency_ms_p90" "ms" 0.25;
    def "peak_heap_mb" "MB" 0.2;
  ]

(* Further end-to-end metrics, printed and compared but not part of the
   result line: one too noisy to gate on, the rest of some workloads
   only. *)
let workload_specific =
  [
    def "error_rate" "ratio" 0.;
    def "latency_ms_p50" "ms" 0.25;
    def "interp_ms_p50" "ms" 0.25;
    def "heap_allocs" "cells" 0.;
    def "gc_work" "cells" 0.;
    def "peak_live_cells" "cells" 0.;
    def "serve_ms_p99" "ms" 0.25;
    def "serve_edit_ms_p50" "ms" 0.25;
  ]

(* Per-layer metrics and their units, reported by traced runs. *)
let per_layer =
  let ms n = (n, "ms") and count n = (n, "count") and ratio n = (n, "ratio") in
  [
    ms "nml.parse_ms"; ms "nml.mono_ms"; count "nml.mono_instances"; ms "nml.infer_ms";
    ms "fixpoint.ms"; count "fixpoint.evaluations"; count "fixpoint.iterations";
    count "fixpoint.sccs"; count "fixpoint.largest_scc"; count "fixpoint.memo_hits";
    count "fixpoint.memo_misses"; ratio "fixpoint.memo_hit_ratio";
    ms "optimize.ms"; count "optimize.fixpoint_evaluations";
    count "optimize.calls_redirected"; count "optimize.alias_licensed";
    count "optimize.stack_annotations"; count "optimize.block_annotations";
    count "optimize.pretenure_sites";
    ms "backend.compile_ms"; ms "backend.anf_ms"; ms "backend.closure_ms";
    count "backend.functions"; count "backend.known_call_sites";
    count "backend.generic_app_sites"; count "backend.closure_sites";
    ratio "backend.known_call_ratio";
    ms "vm.eval_ms"; ms "vm.mutator_ms"; ms "vm.read_value_ms"; count "vm.steps";
    ("vm.steps_per_us", "1/us");
    ms "heap.collector_ms"; ms "heap.pause_ms_max"; count "heap.gc_runs";
    count "heap.minor_gcs"; count "heap.major_gcs"; count "heap.promoted";
    count "heap.pretenured"; count "heap.remembered"; count "heap.marked";
    count "heap.swept"; count "heap.dcons_reuses"; count "heap.arena_allocs";
    count "heap.regions_reclaimed"; count "heap.allocs"; count "heap.gc_work";
    count "heap.peak_live_cells";
    ms "machine.eval_ms"; ms "machine.collector_ms";
    count "cache.scc_hits"; count "cache.scc_misses"; ratio "cache.hit_ratio";
    count "cache.evaluations"; ms "cache.analyze_ms";
    ms "serve.rtt_ms"; ms "serve.overhead_ms";
  ]

let unit_of name =
  match List.find_opt (fun d -> d.name = name) (end_to_end @ workload_specific) with
  | Some d -> d.unit
  | None -> Option.value ~default:"" (List.assoc_opt name per_layer)

(* ---- sample statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let percentile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* A percentile is meaningful only with at least ten samples beyond it. *)
let samples_for q = int_of_float (Float.ceil (10. /. (1. -. q)))

let median samples = percentile samples 0.5

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   (the default "exclusive" method). *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* ---- results ------------------------------------------------------------------ *)

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (* metric name -> value, in report order *)
}

(* [Nml.Json] rounds numbers to three decimals; results keep every
   digit. *)
let rec json_string = function
  | J.Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> json_string (J.Str k) ^ ": " ^ json_string v) kvs)
      ^ "}"
  | J.Arr xs -> "[\n" ^ String.concat ",\n" (List.map json_string xs) ^ "\n]"
  | J.Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (function
          | ('"' | '\\') as c ->
              Buffer.add_char b '\\';
              Buffer.add_char b c
          | '\n' -> Buffer.add_string b "\\n"
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | J.Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | J.Num _ -> "0"
  | J.Bool b -> string_of_bool b

let pp_result ppf r =
  Format.fprintf ppf "%-30s %16s  %s@." "metric" "value" "unit";
  List.iter
    (fun (n, v) -> Format.fprintf ppf "%-30s %16.6g  %s@." n v (unit_of n))
    r.values;
  Format.fprintf ppf "%-30s %16d@.%-30s %16d@." "attempted" r.attempted "failed" r.failed

(* The result line: correctness, counts and either the end-to-end or
   the per-layer metrics, each with its unit. *)
let result_line r =
  let names =
    if r.traced then List.map fst per_layer else List.map (fun d -> d.name) end_to_end
  in
  let metric name =
    let v = Option.value ~default:0. (List.assoc_opt name r.values) in
    (name, J.Obj [ ("value", J.Num v); ("unit", J.Str (unit_of name)) ])
  in
  json_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.int r.attempted);
         ("failed", J.int r.failed);
         ("metrics", J.Obj (List.map metric names));
       ])

let to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.int r.seed);
      ("traced", J.Bool r.traced);
      ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Num v)) r.values));
    ]

let of_json j =
  let get k = match J.member k j with Some v -> v | None -> failwith ("missing " ^ k) in
  let num = function J.Num f -> f | _ -> failwith "expected a number" in
  {
    workload = (match get "workload" with J.Str s -> s | _ -> failwith "workload");
    seed = int_of_float (num (get "seed"));
    traced = (match get "traced" with J.Bool b -> b | _ -> failwith "traced");
    attempted = int_of_float (num (get "attempted"));
    failed = int_of_float (num (get "failed"));
    values =
      (match get "metrics" with
      | J.Obj kvs -> List.map (fun (k, v) -> (k, num v)) kvs
      | _ -> failwith "metrics");
  }

let read_file file =
  if not (Sys.file_exists file) then []
  else
    match J.parse (In_channel.with_open_text file In_channel.input_all) with
    | J.Arr rs -> List.map of_json rs
    | _ -> failwith (file ^ ": expected a JSON array of results")

(* [--json FILE] holds a list of results; every workload run appends
   its own. *)
let append_file file r =
  let rs = List.map to_json (read_file file) @ [ to_json r ] in
  Out_channel.with_open_text file (fun oc -> output_string oc (json_string (J.Arr rs) ^ "\n"))

(* ---- --compare ------------------------------------------------------------------ *)

type verdict = Same | Worse | Better | Unresolved

let verdict_name = function
  | Same -> "ok"
  | Worse -> "WORSE"
  | Better -> "better"
  | Unresolved -> "unresolved"

(* Compares two sets of untraced runs metric by metric: each side's
   median and quartiles, flagged when the medians differ by more than
   the bound, unresolved when either side's spread exceeds it.  Returns
   [true] when every metric agrees. *)
let compare_sets ppf a b =
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
  in
  let ok = ref true in
  Format.fprintf ppf "%-16s %-20s %-32s %-32s %8s  %s@." "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B/A" "verdict";
  List.iter
    (fun w ->
      let runs set = List.filter (fun r -> r.workload = w && not r.traced) set in
      let ra = runs a and rb = runs b in
      List.iter
        (fun d ->
          let vals rs = List.filter_map (fun r -> List.assoc_opt d.name r.values) rs in
          match (vals ra, vals rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
              let spread q1 m q3 = if m = 0. then q3 -. q1 else (q3 -. q1) /. Float.abs m in
              let change =
                if ma = 0. then if mb = 0. then 0. else infinity
                else (mb -. ma) /. Float.abs ma
              in
              let v =
                if spread qa1 ma qa3 > d.bound || spread qb1 mb qb3 > d.bound then
                  Unresolved
                else if change > d.bound then Worse
                else if -.change > d.bound then Better
                else Same
              in
              if v <> Same then ok := false;
              let cell m q1 q3 = Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3 in
              Format.fprintf ppf "%-16s %-20s %-32s %-32s %8s  %s@." w d.name
                (cell ma qa1 qa3) (cell mb qb1 qb3)
                (if ma = 0. then "-" else Printf.sprintf "%.3f" (mb /. ma))
                (verdict_name v))
        (end_to_end @ workload_specific))
    workloads;
  !ok
