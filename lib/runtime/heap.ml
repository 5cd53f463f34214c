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

(* an open arena: its dynamic id and the head of its intrusive cell chain *)
type arena = { dyn_id : int; mutable ahead : int }

type kind = Scalar | Ptr of int | Funval

exception Error of string
exception Out_of_memory
exception Out_of_fuel

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

type chaos = { gc_period : int; poison : bool; chaos_seed : int }

let no_chaos = { gc_period = 0; poison = false; chaos_seed = 0 }

type 'w tracer = {
  marker : stop_old:bool -> 'w -> unit;
  roots : stop_old:bool -> ('w -> unit) -> unit;
  children : stamp:int -> ('w -> unit) -> 'w -> unit;
}

type 'w t = {
  mutable cells : 'w cell array;
      (* at and past [next], every slot holds the shared [unused] record *)
  unused : 'w cell;
  mutable next : int;  (* bump pointer over never-used cells *)
  mutable free_head : int;  (* intrusive free list, -1 when empty *)
  mutable live : int;
  config : config;
  grow : bool;
  check_arenas : bool;
  chaos : chaos;
  mutable rng : int;  (* the chaos PRNG's state *)
  nil : 'w;
  poison : 'w;
  kind_of : 'w -> kind;
  stats : Stats.t;
  mutable tracer : 'w tracer;
  mutable stamp : int;  (* of the running traversal; each one takes a new one *)
  mutable young_head : int;  (* intrusive nursery chain, -1 when empty *)
  mutable young : int;
  mutable next_dyn_arena : int;
  arenas : (int, arena list) Hashtbl.t;  (* static id -> open arenas, innermost first *)
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

let untraced =
  {
    marker = (fun ~stop_old:_ -> invalid_arg "Heap: collection before set_tracer");
    roots = (fun ~stop_old:_ _ -> ());
    children = (fun ~stamp:_ _ _ -> ());
  }

let create ?(heap_size = 4096) ~grow ~check_arenas ~chaos ~config ~nil ~poison ~kind_of
    ~stats () =
  stats.Stats.heap_capacity <- heap_size;
  stats.Stats.generational <- config.policy = Generational;
  let unused = fresh_cell nil in
  {
    cells = Array.make (max 1 heap_size) unused;
    unused;
    next = 0;
    free_head = -1;
    live = 0;
    config;
    grow;
    check_arenas;
    chaos;
    rng = chaos.chaos_seed lxor 0x2545F4914F6CDD1D;
    nil;
    poison;
    kind_of;
    stats;
    tracer = untraced;
    stamp = 0;
    young_head = -1;
    young = 0;
    next_dyn_arena = 0;
    arenas = Hashtbl.create 8;
    transient = Hashtbl.create 64;
    sticky = Hashtbl.create 16;
  }

let set_tracer h tracer = h.tracer <- tracer
let get h a = h.cells.(a)
let live h = h.live
let used h = h.next

(* bounded by the used prefix, so a cyclic list still ends *)
let free_length h =
  let rec go a n = if a < 0 || n > h.next then n else go h.cells.(a).link (n + 1) in
  go h.free_head 0
let config h = h.config
let is_generational h = h.config.policy = Generational
let stamp h = h.stamp

(* the 48-bit LCG of java.util.Random; the low bits are weak, so draws
   use the high 32 *)
let chaos_draw h =
  h.rng <- ((h.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  h.rng lsr 16

let read h what a =
  let c = h.cells.(a) in
  if h.chaos.poison && c.free then
    error "chaos poison: %s reads cell %d after it was freed (use after free)" what a;
  c

(* ---- allocation ---------------------------------------------------------- *)

type where = Young | Old | In_arena of arena

(* the free list's head, popped, or -1 *)
let take_free h =
  let a = h.free_head in
  if a >= 0 then h.free_head <- h.cells.(a).link;
  a

(* the never-used cell at the bump pointer, given its own record *)
let bump h =
  let a = h.next in
  h.cells.(a) <- fresh_cell h.nil;
  h.next <- a + 1;
  a

(* a free cell, else a never-used one, else -1 *)
let take_free_or_bump h =
  let a = take_free h in
  if a >= 0 then a else if h.next < Array.length h.cells then bump h else -1

(* double the store and hand out its first new cell *)
let grow_and_bump h =
  let cap = Array.length h.cells in
  let bigger = Array.make (2 * cap) h.unused in
  Array.blit h.cells 0 bigger 0 cap;
  h.cells <- bigger;
  h.stats.Stats.heap_capacity <- 2 * cap;
  bump h

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
      h.stats.Stats.arena_allocs <- h.stats.Stats.arena_allocs + 1);
  h.live <- h.live + 1;
  if h.live > h.stats.Stats.peak_live then h.stats.Stats.peak_live <- h.live

(* ---- remembered sets ----------------------------------------------------- *)

let remember set h a =
  if not (Hashtbl.mem set a) then begin
    Hashtbl.replace set a ();
    h.stats.Stats.remembered <- h.stats.Stats.remembered + 1
  end

(* Record an old (or arena-resident) cell in a remembered set when it now
   holds young or function-like references; a no-op under the legacy
   policy.  Called after initializing or mutating a non-young cell. *)
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
            remember h.sticky h a
        | Ptr b -> if not h.cells.(b).old then remember h.transient h a
      in
      child c.car;
      child c.cdr;
      child c.lbl
    end
  end

(* ---- reclamation --------------------------------------------------------- *)

(* Scrub (or, under poisoning, scribble over) the cell, push it on the
   free list, maintain [live] and the [swept]/[arena_freed] counters.
   Does not unlink from the nursery chain: only the sweeps free young
   cells. *)
let free_cell h a ~reason =
  let c = h.cells.(a) in
  c.free <- true;
  c.arena <- -1;
  c.old <- false;
  let w =
    if h.chaos.poison then begin
      h.stats.Stats.poisoned <- h.stats.Stats.poisoned + 1;
      h.poison
    end
    else h.nil
  in
  c.car <- w;
  c.cdr <- w;
  c.lbl <- w;
  c.link <- h.free_head;
  h.free_head <- a;
  h.live <- h.live - 1;
  match reason with
  | `Swept -> h.stats.Stats.swept <- h.stats.Stats.swept + 1
  | `Arena -> h.stats.Stats.arena_freed <- h.stats.Stats.arena_freed + 1

let funval_child h c =
  let is w = match h.kind_of w with Funval -> true | Scalar | Ptr _ -> false in
  is c.car || is c.cdr || is c.lbl

(* Minor sweep: free the unmarked cells of the nursery chain, promote the
   marked ones in place (cells with function-like children go to the
   sticky set); ends with an empty nursery and transient set. *)
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
      if funval_child h c then remember h.sticky h !a
    end
    else free_cell h !a ~reason:`Swept;
    a := next
  done;
  h.young_head <- -1;
  h.young <- 0;
  (* sound to drop: every live young cell a remembered cell referenced
     was just marked through it, hence promoted *)
  Hashtbl.reset h.transient

(* Major sweep: free the unmarked non-arena cells of the used prefix and
   unmark the rest; under the generational policy every survivor is
   promoted and the remembered sets are filtered. *)
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
        if funval_child h c then remember h.sticky h a
      end
    end
    else if (not c.free) && c.arena < 0 then free_cell h a ~reason:`Swept
  done;
  if gen then begin
    (* every survivor is old now: reset the nursery wholesale and keep
       only sticky entries that survived *)
    h.young_head <- -1;
    h.young <- 0;
    Hashtbl.reset h.transient;
    let dead =
      Hashtbl.fold (fun a () acc -> if h.cells.(a).free then a :: acc else acc)
        h.sticky []
    in
    List.iter (Hashtbl.remove h.sticky) dead
  end

(* ---- collection ------------------------------------------------------------ *)

(* A freed cell reached from a root is a dangling pointer: a crash under
   poisoning, and otherwise left unmarked, so that no sweep promotes it
   (cutting the free list at its link) and no later allocation inherits
   its mark. *)
let mark h ~stop_old a =
  let c = h.cells.(a) in
  if c.free then begin
    if h.chaos.poison then
      error "chaos poison: the collector reached freed cell %d from a live root" a;
    c
  end
  else if (stop_old && c.old) || c.marked then h.unused (* free, and its words are nil *)
  else begin
    c.marked <- true;
    h.stats.Stats.marked <- h.stats.Stats.marked + 1;
    c
  end

(* One collection: the engine marks from its roots, a minor collection
   also from the remembered cells' words, then the matching sweep.  The
   pause counts the cells touched: marked, swept and, for a minor
   collection, the remembered entries scanned. *)
let gc h ~minor =
  let st = h.stats in
  let t0 = Stats.now_ns () in
  let marked0 = st.Stats.marked and swept0 = st.Stats.swept in
  let scanned = if minor then Hashtbl.length h.transient + Hashtbl.length h.sticky else 0 in
  st.Stats.gc_runs <- st.Stats.gc_runs + 1;
  if minor then st.Stats.minor_gcs <- st.Stats.minor_gcs + 1
  else if is_generational h then st.Stats.major_gcs <- st.Stats.major_gcs + 1;
  h.stamp <- h.stamp + 1;
  let mark = h.tracer.marker ~stop_old:minor in
  h.tracer.roots ~stop_old:minor mark;
  if minor then begin
    let scan a =
      let c = h.cells.(a) in
      if not c.free then begin
        mark c.car;
        mark c.cdr;
        mark c.lbl
      end
    in
    Hashtbl.iter (fun a () -> scan a) h.transient;
    Hashtbl.iter (fun a () -> if not (Hashtbl.mem h.transient a) then scan a) h.sticky;
    sweep_nursery h
  end
  else sweep_all h;
  let cells = st.Stats.marked - marked0 + (st.Stats.swept - swept0) + scanned in
  Stats.record_pause st ~cells ~ns:(Stats.now_ns () -. t0)

let collect h = gc h ~minor:false
let collect_minor h = gc h ~minor:(is_generational h)

(* ---- the allocator --------------------------------------------------------- *)

let current_arena h = function
  | Ir.Heap | Ir.Pretenured -> None
  | Ir.Arena sid -> (
      match Hashtbl.find_opt h.arenas sid with
      | Some (a :: _) -> Some a
      | Some [] | None -> error "cons targets arena %d, but no such arena is open" sid)

(* claim [addr] for a cell of [hd] and [tl]; an old or arena-resident
   cell may be born holding young references *)
let init h addr hd tl where =
  let c = h.cells.(addr) in
  assert c.free;
  c.car <- hd;
  c.cdr <- tl;
  register h addr where;
  match where with Young -> () | Old | In_arena _ -> barrier h addr

let alloc h target hd tl =
  let cfg = h.config in
  let gen = match cfg.policy with Generational -> true | Legacy -> false in
  (* gc chaos: force a collection at pseudo-random allocation points, so
     any value the evaluator failed to root is swept out from under it;
     generational runs force mostly minor collections, with an
     occasional major, so both paths see mid-region interruptions *)
  if h.chaos.gc_period > 0 && chaos_draw h mod h.chaos.gc_period = 0 then begin
    h.stats.Stats.chaos_gcs <- h.stats.Stats.chaos_gcs + 1;
    gc h ~minor:(gen && chaos_draw h mod 4 <> 0)
  end;
  match if cfg.regions then current_arena h target else None with
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
      if gen && (not old) && h.young >= Int.max 1 cfg.nursery then gc h ~minor:true;
      let a = take_free_or_bump h in
      let a =
        if a >= 0 then a
        else begin
          (* an exhausted store: collect, then retry; generational heaps
             try a nursery collection before resorting to a full one *)
          if gen && h.young > 0 then begin
            gc h ~minor:true;
            if h.free_head < 0 then gc h ~minor:false
          end
          else gc h ~minor:false;
          let a = take_free h in
          if a >= 0 then a else if h.grow then grow_and_bump h else raise Out_of_memory
        end
      in
      init h a hd tl (if old then Old else Young);
      a

let alloc_node h target l x r =
  let a = alloc h target l r in
  h.cells.(a).lbl <- x;
  barrier h a;
  a

(* ---- reuse in place ---------------------------------------------------------- *)

let reused h what a =
  let c = h.cells.(a) in
  if c.free then error "%s on a freed cell" what;
  c

(* reuse can write young references into an old or arena cell *)
let rewritten h a =
  barrier h a;
  h.stats.Stats.dcons_reuses <- h.stats.Stats.dcons_reuses + 1

let dcons h a hd tl =
  let c = reused h "DCONS" a in
  c.car <- hd;
  c.cdr <- tl;
  rewritten h a

let dnode h a l x r =
  let c = reused h "DNODE" a in
  c.car <- l;
  c.lbl <- x;
  c.cdr <- r;
  rewritten h a

(* ---- arenas -------------------------------------------------------------- *)

let open_arena h sid =
  if h.config.regions then begin
    let dyn_id = h.next_dyn_arena in
    h.next_dyn_arena <- h.next_dyn_arena + 1;
    let stack = Option.value ~default:[] (Hashtbl.find_opt h.arenas sid) in
    Hashtbl.replace h.arenas sid ({ dyn_id; ahead = -1 } :: stack)
  end

exception Reaches_arena

(* whether a cell of [ar] is reachable from the words [roots] visits;
   each cell is walked once (a table) and each closure once (the
   engine's [children] stamps it) *)
let reaches_arena h ar roots =
  let seen = Hashtbl.create 256 in
  let rec walk w =
    match h.kind_of w with
    | Scalar -> ()
    | Ptr a ->
        if not (Hashtbl.mem seen a) then begin
          Hashtbl.add seen a ();
          let c = h.cells.(a) in
          if c.arena = ar.dyn_id then raise_notrace Reaches_arena;
          walk c.car;
          walk c.cdr;
          walk c.lbl
        end
    | Funval -> h.tracer.children ~stamp:h.stamp walk w
  in
  h.stamp <- h.stamp + 1;
  match roots walk with () -> false | exception Reaches_arena -> true

let close_arena h sid ~roots =
  if h.config.regions then begin
    let ar =
      match Hashtbl.find_opt h.arenas sid with
      | Some (ar :: stack) ->
          Hashtbl.replace h.arenas sid stack;
          ar
      | Some [] | None -> invalid_arg (Printf.sprintf "Heap.close_arena: arena %d is not open" sid)
    in
    if h.check_arenas && reaches_arena h ar roots then
      error "arena safety violation: a cell of arena %d escapes its scope" sid;
    (* bulk reclamation: free the arena's chain by its intrusive links,
       no marking, no heap scan *)
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
    if !freed > 0 then
      h.stats.Stats.regions_reclaimed <- h.stats.Stats.regions_reclaimed + 1
  end
