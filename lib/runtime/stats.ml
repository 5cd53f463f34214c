type t = {
  mutable heap_allocs : int;
  mutable arena_allocs : int;
  mutable dcons_reuses : int;
  mutable gc_runs : int;
  mutable marked : int;
  mutable swept : int;
  mutable arena_freed : int;
  mutable heap_capacity : int;
  mutable peak_live : int;
  mutable steps : int;
  mutable chaos_gcs : int;
  mutable poisoned : int;
  mutable generational : bool;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted : int;
  mutable pretenured : int;
  mutable remembered : int;
  mutable regions_reclaimed : int;
  mutable hint_sites : int;
  mutable hints_accepted : int;
  mutable pause_ns : float array;
  mutable pause_cells : int array;
  mutable pauses : int;
}

let create () =
  {
    heap_allocs = 0;
    arena_allocs = 0;
    dcons_reuses = 0;
    gc_runs = 0;
    marked = 0;
    swept = 0;
    arena_freed = 0;
    heap_capacity = 0;
    peak_live = 0;
    steps = 0;
    chaos_gcs = 0;
    poisoned = 0;
    generational = false;
    minor_gcs = 0;
    major_gcs = 0;
    promoted = 0;
    pretenured = 0;
    remembered = 0;
    regions_reclaimed = 0;
    hint_sites = 0;
    hints_accepted = 0;
    pause_ns = [||];
    pause_cells = [||];
    pauses = 0;
  }

let reset t =
  t.heap_allocs <- 0;
  t.arena_allocs <- 0;
  t.dcons_reuses <- 0;
  t.gc_runs <- 0;
  t.marked <- 0;
  t.swept <- 0;
  t.arena_freed <- 0;
  t.heap_capacity <- 0;
  t.peak_live <- 0;
  t.steps <- 0;
  t.chaos_gcs <- 0;
  t.poisoned <- 0;
  t.minor_gcs <- 0;
  t.major_gcs <- 0;
  t.promoted <- 0;
  t.pretenured <- 0;
  t.remembered <- 0;
  t.regions_reclaimed <- 0;
  t.hint_sites <- 0;
  t.hints_accepted <- 0;
  t.pause_ns <- [||];
  t.pause_cells <- [||];
  t.pauses <- 0

let total_allocs t = t.heap_allocs + t.arena_allocs
let gc_work t = t.marked + t.swept

(* ---- pause samples ------------------------------------------------------- *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let record_pause t ~cells ~ns =
  let cap = Array.length t.pause_cells in
  if t.pauses >= cap then begin
    let cap' = max 16 (2 * cap) in
    let ns' = Array.make cap' 0.0 and cs' = Array.make cap' 0 in
    Array.blit t.pause_ns 0 ns' 0 t.pauses;
    Array.blit t.pause_cells 0 cs' 0 t.pauses;
    t.pause_ns <- ns';
    t.pause_cells <- cs'
  end;
  t.pause_ns.(t.pauses) <- ns;
  t.pause_cells.(t.pauses) <- cells;
  t.pauses <- t.pauses + 1

(* nearest-rank percentile over the first [t.pauses] samples *)
let percentiles sub sort get t =
  if t.pauses = 0 then None
  else begin
    let a = sub t 0 t.pauses in
    sort a;
    let rank p =
      let n = Array.length a in
      min (n - 1) (max 0 (int_of_float (Float.round (p *. float_of_int (n - 1)))))
    in
    Some (get a (rank 0.50), get a (rank 0.95), get a (Array.length a - 1))
  end

let pause_percentiles_cells t =
  percentiles
    (fun t -> Array.sub t.pause_cells)
    (fun a -> Array.sort compare a)
    (fun a i -> a.(i))
    t

let pause_percentiles_ns t =
  percentiles
    (fun t -> Array.sub t.pause_ns)
    (fun a -> Array.sort compare a)
    (fun a i -> a.(i))
    t

(* ---- rendering ----------------------------------------------------------- *)

let to_row t =
  [
    ("heap_allocs", t.heap_allocs);
    ("arena_allocs", t.arena_allocs);
    ("dcons_reuses", t.dcons_reuses);
    ("gc_runs", t.gc_runs);
    ("marked", t.marked);
    ("swept", t.swept);
    ("arena_freed", t.arena_freed);
    ("heap_capacity", t.heap_capacity);
    ("peak_live", t.peak_live);
  ]
  (* chaos counters only appear when fault injection was active, so the
     output of plain runs is unchanged *)
  @ (if t.chaos_gcs > 0 then [ ("chaos_gcs", t.chaos_gcs) ] else [])
  @ (if t.poisoned > 0 then [ ("poisoned", t.poisoned) ] else [])
  (* generational counters only appear for generational runs, so legacy
     output stays byte-identical *)
  @
  if not t.generational then []
  else
    [
      ("minor_gcs", t.minor_gcs);
      ("major_gcs", t.major_gcs);
      ("promoted", t.promoted);
      ("pretenured", t.pretenured);
      ("remembered", t.remembered);
      ("regions_reclaimed", t.regions_reclaimed);
    ]
    (* advisory dead-spine hints: rendered only when the run actually
       tagged a binding, so hint-free output stays byte-identical *)
    @ (if t.hint_sites > 0 then
         [ ("hint_sites", t.hint_sites); ("hints_accepted", t.hints_accepted) ]
       else [])
    @
    match pause_percentiles_cells t with
    | None -> []
    | Some (p50, p95, mx) ->
        [
          ("pause_cells_p50", p50); ("pause_cells_p95", p95); ("pause_cells_max", mx);
        ]

let pp ppf t =
  Format.fprintf ppf "@[<v 0>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-13s %d@ " k v) (to_row t);
  Format.fprintf ppf "@]"

(* ---- process-global telemetry -------------------------------------------- *)

let snapshot t = { t with heap_allocs = t.heap_allocs }

let g_evals = Atomic.make 0
let g_steps = Atomic.make 0
let g_heap_allocs = Atomic.make 0
let g_arena_allocs = Atomic.make 0
let g_dcons_reuses = Atomic.make 0
let g_gc_runs = Atomic.make 0
let g_minor_gcs = Atomic.make 0
let g_major_gcs = Atomic.make 0
let g_promoted = Atomic.make 0
let g_pretenured = Atomic.make 0
let g_swept = Atomic.make 0
let g_arena_freed = Atomic.make 0
let g_regions_reclaimed = Atomic.make 0
let g_hint_sites = Atomic.make 0
let g_hints_accepted = Atomic.make 0

let add_delta cell a b = ignore (Atomic.fetch_and_add cell (max 0 (a - b)))

let global_add ~before ~after =
  ignore (Atomic.fetch_and_add g_evals 1);
  add_delta g_steps after.steps before.steps;
  add_delta g_heap_allocs after.heap_allocs before.heap_allocs;
  add_delta g_arena_allocs after.arena_allocs before.arena_allocs;
  add_delta g_dcons_reuses after.dcons_reuses before.dcons_reuses;
  add_delta g_gc_runs after.gc_runs before.gc_runs;
  add_delta g_minor_gcs after.minor_gcs before.minor_gcs;
  add_delta g_major_gcs after.major_gcs before.major_gcs;
  add_delta g_promoted after.promoted before.promoted;
  add_delta g_pretenured after.pretenured before.pretenured;
  add_delta g_swept after.swept before.swept;
  add_delta g_arena_freed after.arena_freed before.arena_freed;
  add_delta g_regions_reclaimed after.regions_reclaimed before.regions_reclaimed;
  add_delta g_hint_sites after.hint_sites before.hint_sites;
  add_delta g_hints_accepted after.hints_accepted before.hints_accepted

let global_row () =
  [
    ("evals", Atomic.get g_evals);
    ("steps", Atomic.get g_steps);
    ("heap_allocs", Atomic.get g_heap_allocs);
    ("arena_allocs", Atomic.get g_arena_allocs);
    ("dcons_reuses", Atomic.get g_dcons_reuses);
    ("gc_runs", Atomic.get g_gc_runs);
    ("minor_gcs", Atomic.get g_minor_gcs);
    ("major_gcs", Atomic.get g_major_gcs);
    ("promoted", Atomic.get g_promoted);
    ("pretenured", Atomic.get g_pretenured);
    ("swept", Atomic.get g_swept);
    ("arena_freed", Atomic.get g_arena_freed);
    ("regions_reclaimed", Atomic.get g_regions_reclaimed);
  ]
