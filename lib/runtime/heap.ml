type policy = Legacy | Generational

type config = {
  policy : policy;
  regions : bool;
  pretenure : bool;
  nursery : int;
  liveness_hints : (string * int list) list;
      (* (definition, 1-based parameter indices) whose argument spine the
         callee provably never needs past the head — the spine-liveness
         analysis' Dead/Head_only verdicts.  Advisory: the policies
         reclaim identically with or without them (they never change the
         stats rows); a collector may use them to skip scavenging. *)
}

let legacy =
  { policy = Legacy; regions = true; pretenure = false; nursery = 0; liveness_hints = [] }

let generational =
  {
    policy = Generational;
    regions = true;
    pretenure = true;
    nursery = 1024;
    liveness_hints = [];
  }

let hinted_dead_spine c ~fname ~arg =
  match List.assoc_opt fname c.liveness_hints with
  | Some idxs -> List.mem arg idxs
  | None -> false

let config_name c =
  match c.policy with
  | Legacy -> if c.regions then "legacy" else "legacy/no-regions"
  | Generational ->
      Printf.sprintf "gen/nursery=%d%s%s" c.nursery
        (if c.regions then "" else "/no-regions")
        (if c.pretenure then "" else "/no-pretenure")

type 'w cell = {
  mutable car : 'w;
  mutable cdr : 'w;
  mutable lbl : 'w;
  mutable marked : bool;
  mutable free : bool;
  mutable arena : int;
  mutable old : bool;
  mutable link : int;
}

type 'w arena = {
  kind : Ir.arena_kind;
  dyn_id : int;
  mutable ahead : int;
  mutable acount : int;
}

type kind = Scalar | Ptr of int | Funval

type 'w t = {
  mutable cells : 'w cell array;
  mutable next : int;  (* bump pointer over never-used cells *)
  mutable free_head : int;  (* intrusive free list, -1 when empty *)
  mutable live : int;
  config : config;
  grow : bool;
  chaos_period : int;
  nil : 'w;
  scrub : 'w cell -> unit;
  kind_of : 'w -> kind;
  stats : Stats.t;
  mutable young_head : int;  (* intrusive nursery chain, -1 when empty *)
  mutable young : int;
  mutable next_dyn_arena : int;
  transient : (int, unit) Hashtbl.t;  (* cleared by every minor sweep *)
  sticky : (int, unit) Hashtbl.t;  (* scanned by every minor collection *)
}

let fresh_cell nil =
  {
    car = nil;
    cdr = nil;
    lbl = nil;
    marked = false;
    free = true;
    arena = -1;
    old = false;
    link = -1;
  }

let create ?(heap_size = 4096) ~grow ~chaos_period ~config ~nil ~scrub ~kind_of ~stats
    () =
  stats.Stats.heap_capacity <- heap_size;
  stats.Stats.generational <- config.policy = Generational;
  {
    cells = Array.init (max 1 heap_size) (fun _ -> fresh_cell nil);
    next = 0;
    free_head = -1;
    live = 0;
    config;
    grow;
    chaos_period;
    nil;
    scrub;
    kind_of;
    stats;
    young_head = -1;
    young = 0;
    next_dyn_arena = 0;
    transient = Hashtbl.create 64;
    sticky = Hashtbl.create 16;
  }

let get h a = h.cells.(a)
let capacity h = Array.length h.cells
let live h = h.live
let used h = h.next

(* bounded by the used prefix, so a cyclic list still ends *)
let free_length h =
  let rec go a n = if a < 0 || n > h.next then n else go h.cells.(a).link (n + 1) in
  go h.free_head 0
let config h = h.config
let is_generational h = h.config.policy = Generational
let remembered_size h = Hashtbl.length h.transient + Hashtbl.length h.sticky

(* ---- allocation ---------------------------------------------------------- *)

type 'w where = Young | Old | In_arena of 'w arena

exception Out_of_memory

(* the free list's head, popped, or -1 *)
let take_free h =
  let a = h.free_head in
  if a >= 0 then h.free_head <- h.cells.(a).link;
  a

(* a free cell, else a never-used one, else -1 *)
let take_free_or_bump h =
  let a = take_free h in
  if a >= 0 then a
  else if h.next < Array.length h.cells then begin
    h.next <- h.next + 1;
    h.next - 1
  end
  else -1

(* double the store and hand out its first new cell *)
let grow_and_bump h =
  let old = h.cells in
  let cap = Array.length old in
  let bigger =
    Array.init (2 * cap) (fun i -> if i < cap then old.(i) else fresh_cell h.nil)
  in
  h.cells <- bigger;
  h.stats.Stats.heap_capacity <- 2 * cap;
  h.next <- h.next + 1;
  h.next - 1

let register h addr where =
  let c = h.cells.(addr) in
  c.free <- false;
  (match where with
  | Young ->
      c.arena <- -1;
      if is_generational h then begin
        c.old <- false;
        c.link <- h.young_head;
        h.young_head <- addr;
        h.young <- h.young + 1
      end
      else begin
        (* legacy cells are born old: there is no younger generation *)
        c.old <- true;
        c.link <- -1
      end;
      h.stats.Stats.heap_allocs <- h.stats.Stats.heap_allocs + 1
  | Old ->
      c.arena <- -1;
      c.old <- true;
      c.link <- -1;
      h.stats.Stats.heap_allocs <- h.stats.Stats.heap_allocs + 1;
      h.stats.Stats.pretenured <- h.stats.Stats.pretenured + 1
  | In_arena ar ->
      c.arena <- ar.dyn_id;
      (* arena-resident data is old as far as the minor collector is
         concerned: pauses must not scale with region contents *)
      c.old <- true;
      c.link <- ar.ahead;
      ar.ahead <- addr;
      ar.acount <- ar.acount + 1;
      h.stats.Stats.arena_allocs <- h.stats.Stats.arena_allocs + 1);
  h.live <- h.live + 1;
  if h.live > h.stats.Stats.peak_live then h.stats.Stats.peak_live <- h.live

(* ---- remembered sets ----------------------------------------------------- *)

let remember_transient h a =
  if not (Hashtbl.mem h.transient a) then begin
    Hashtbl.replace h.transient a ();
    h.stats.Stats.remembered <- h.stats.Stats.remembered + 1
  end

let remember_sticky h a =
  if not (Hashtbl.mem h.sticky a) then begin
    Hashtbl.replace h.sticky a ();
    h.stats.Stats.remembered <- h.stats.Stats.remembered + 1
  end

let barrier h a =
  if is_generational h then begin
    let c = h.cells.(a) in
    if c.old then begin
      let child w =
        match h.kind_of w with
        | Scalar -> ()
        | Funval ->
            (* captured environments can acquire young references after
               this write (letrec slots fill in later): scan forever *)
            remember_sticky h a
        | Ptr b -> if not h.cells.(b).old then remember_transient h a
      in
      child c.car;
      child c.cdr;
      child c.lbl
    end
  end

let iter_remembered h f =
  Hashtbl.iter (fun a () -> f a) h.transient;
  Hashtbl.iter (fun a () -> if not (Hashtbl.mem h.transient a) then f a) h.sticky

let clear_transient h = Hashtbl.reset h.transient

(* ---- the allocator --------------------------------------------------------- *)

type ('m, 'w) hooks = {
  minor : 'm -> unit;
  major : 'm -> unit;
  draw : 'm -> int;
  arena : 'm -> Ir.alloc -> 'w arena option;
}

(* claim [addr] for a cell of [hd] and [tl]; an old or arena-resident
   cell may be born holding young references *)
let init h addr hd tl where =
  let c = h.cells.(addr) in
  assert c.free;
  c.car <- hd;
  c.cdr <- tl;
  register h addr where;
  match where with Young -> () | Old | In_arena _ -> barrier h addr

let alloc h k m target hd tl =
  let cfg = h.config in
  let gen = match cfg.policy with Generational -> true | Legacy -> false in
  (* gc chaos: force a collection at pseudo-random allocation points, so
     any value the evaluator failed to root is swept out from under it;
     generational runs force mostly minor collections, with an
     occasional major, so both paths see mid-region interruptions *)
  if h.chaos_period > 0 && k.draw m mod h.chaos_period = 0 then begin
    h.stats.Stats.chaos_gcs <- h.stats.Stats.chaos_gcs + 1;
    if gen && k.draw m mod 4 <> 0 then k.minor m else k.major m
  end;
  match if cfg.regions then k.arena m target else None with
  | Some ar ->
      (* arena allocation models stack / local-heap storage: it never
         triggers a collection, the store just grows *)
      let a = take_free_or_bump h in
      let a = if a >= 0 then a else grow_and_bump h in
      init h a hd tl (In_arena ar);
      a
  | None ->
      let old =
        match target with
        | Ir.Pretenured -> gen && cfg.pretenure
        | Ir.Heap | Ir.Arena _ -> false
      in
      (* the nursery threshold: collect it before it overflows *)
      if gen && (not old) && h.young >= Int.max 1 cfg.nursery then k.minor m;
      let a = take_free_or_bump h in
      let a =
        if a >= 0 then a
        else begin
          (* an exhausted store: collect, then retry; generational heaps
             try a nursery collection before resorting to a full one *)
          if gen && h.young > 0 then begin
            k.minor m;
            if h.free_head < 0 then k.major m
          end
          else k.major m;
          let a = take_free h in
          if a >= 0 then a else if h.grow then grow_and_bump h else raise Out_of_memory
        end
      in
      init h a hd tl (if old then Old else Young);
      a

(* ---- reclamation --------------------------------------------------------- *)

let free_cell h a ~reason =
  let c = h.cells.(a) in
  c.free <- true;
  c.arena <- -1;
  c.old <- false;
  h.scrub c;
  c.link <- h.free_head;
  h.free_head <- a;
  h.live <- h.live - 1;
  match reason with
  | `Swept -> h.stats.Stats.swept <- h.stats.Stats.swept + 1
  | `Arena -> h.stats.Stats.arena_freed <- h.stats.Stats.arena_freed + 1

let funval_child h c =
  let is w = match h.kind_of w with Funval -> true | Scalar | Ptr _ -> false in
  is c.car || is c.cdr || is c.lbl

let sweep_nursery h =
  let a = ref h.young_head in
  while !a >= 0 do
    let c = h.cells.(!a) in
    let next = c.link in
    if c.marked then begin
      c.marked <- false;
      c.old <- true;
      c.link <- -1;
      h.stats.Stats.promoted <- h.stats.Stats.promoted + 1;
      if funval_child h c then remember_sticky h !a
    end
    else free_cell h !a ~reason:`Swept;
    a := next
  done;
  h.young_head <- -1;
  h.young <- 0;
  (* sound to drop: every live young cell a remembered cell referenced
     was just marked through it, hence promoted *)
  clear_transient h

let sweep_all h =
  let gen = is_generational h in
  for a = 0 to h.next - 1 do
    let c = h.cells.(a) in
    if c.marked then begin
      c.marked <- false;
      if gen && not c.old then begin
        c.old <- true;
        c.link <- -1;
        h.stats.Stats.promoted <- h.stats.Stats.promoted + 1;
        if funval_child h c then remember_sticky h a
      end
    end
    else if (not c.free) && c.arena < 0 then free_cell h a ~reason:`Swept
  done;
  if gen then begin
    (* every survivor is old now: reset the nursery wholesale and keep
       only sticky entries that survived *)
    h.young_head <- -1;
    h.young <- 0;
    clear_transient h;
    let dead =
      Hashtbl.fold (fun a () acc -> if h.cells.(a).free then a :: acc else acc)
        h.sticky []
    in
    List.iter (Hashtbl.remove h.sticky) dead
  end

(* ---- arenas -------------------------------------------------------------- *)

let open_arena h ~kind =
  let dyn_id = h.next_dyn_arena in
  h.next_dyn_arena <- h.next_dyn_arena + 1;
  { kind; dyn_id; ahead = -1; acount = 0 }

let close_arena h ar =
  let freed = ref 0 in
  let a = ref ar.ahead in
  while !a >= 0 do
    let c = h.cells.(!a) in
    let next = c.link in
    if not c.free then begin
      free_cell h !a ~reason:`Arena;
      incr freed
    end;
    a := next
  done;
  ar.ahead <- -1;
  ar.acount <- 0;
  if !freed > 0 then
    h.stats.Stats.regions_reclaimed <- h.stats.Stats.regions_reclaimed + 1
