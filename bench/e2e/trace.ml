(* Spans around the benchmark's calls into each layer's public
   functions.  Tracing is off unless [enabled] is set; then [span] is the
   call plus one branch.  Spans stay in memory until the run ends and
   are only ever recorded from the main thread. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false

type span = { id : int; name : string; parent : int; start : int; stop : int }

let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop = now_ns () in
        open_ids := List.tl !open_ids;
        spans := { id; name; parent; start; stop } :: !spans)
  end

let duration s = s.stop - s.start

(* Self time: a span's duration minus the durations of its children. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s - Option.value ~default:0 (Hashtbl.find_opt children s.id)))
    spans

(* The outermost ancestor's name: which phase (setup, pass, oracle) a
   span belongs to. *)
let roots spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  root

(* Per name: (count, total ns, self ns), in first-seen order. *)
let table spans =
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt rows s.name with
      | Some (c, t, st) -> Hashtbl.replace rows s.name (c + 1, t + duration s, st + self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace rows s.name (1, duration s, self))
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find rows n)) !order

let pp_table ppf spans =
  let ms ns = float_of_int ns /. 1e6 in
  Format.fprintf ppf "%-20s %8s %12s %12s@." "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, (c, t, st)) ->
      Format.fprintf ppf "%-20s %8d %12.3f %12.3f@." name c (ms t) (ms st))
    (table spans)

(* Chrome trace-event JSON: one complete ("X") event per span. *)
let write_chrome file spans =
  let module J = Nml.Json in
  let t0 = List.fold_left (fun m s -> min m s.start) max_int spans in
  let us ns = J.Num (float_of_int ns /. 1e3) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", us (s.start - t0));
        ("dur", us (duration s));
        ("pid", J.int 1);
        ("tid", J.int 1);
        ("args", J.Obj [ ("id", J.int s.id); ("parent", J.int s.parent) ]);
      ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (J.to_string (J.Obj [ ("traceEvents", J.Arr (List.rev_map event spans)) ])))
