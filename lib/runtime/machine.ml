module Ast = Nml.Ast
module H = Heap

type word =
  | Wint of int
  | Wbool of bool
  | Wnil
  | Wptr of int
  | Wpair of int
  | Wleaf
  | Wtree of int  (** address of a tree node: car=left, cdr=right, lbl=label *)
  | Wclos of closure
  | Wprim of Ast.prim * word list
  | Wcons_at of Ir.alloc * word list
  | Wnode_at of Ir.alloc * word list
  | Wdcons of word list
  | Wdnode of word list

and closure = {
  lam : lam;
  cenv : env;
  mutable cmark : bool;
  mutable hints : int list;
      (** 1-based parameters the spine-liveness analysis proved dead;
          tagged when a letrec binding with advisory hints is filled *)
}

(* An environment is a chain of frames, innermost first: a call links
   one [Arg] frame holding its argument to the closure's chain, and a
   letrec one [Group] frame holding its bindings in source order, of
   which the first [filled] have been evaluated.  A frame keeps the
   [hidden] positions of its binder: every (frames up, slot) of the
   chain below it that a name in scope there shadows.  The visible
   bindings, the only ones the collector marks, are the chain's slots
   less those. *)
and env =
  | Top
  | Arg of { arg : word; up : env; hidden : hidden }
  | Group of { slots : word array; mutable filled : int; up : env; hidden : hidden }

and hidden = (int * int) list

(* [Ir.expr] resolved once per [eval]: every variable is a frame
   address; a saturated primitive, pair, cons, node, DCONS or DNODE is
   one node that builds no partial application; and a nest of two or
   more applications of anything else is one call *)
and code =
  | Cword of word  (** a constant or an unapplied primitive *)
  | Carg of int  (** the argument of the frame that many up *)
  | Cslot of int * int * string  (** frames up, slot, name *)
  | Cunbound of string
  | Clam of lam
  | Capp of code * code
  | Ccall of code * code array  (** [f a1 ... an], [n >= 2] *)
  | Cif of code * code * code
  | Cletrec of rec_binding array * hidden * code
  | Carena of Ir.arena_kind * int * code
  | Cprim1 of Ast.prim * code
  | Cprim2 of Ast.prim * code * code
  | Ccons of Ir.alloc * code * code
  | Cpair of code * code
  | Cnode of Ir.alloc * code * code * code
  | Cdcons of code * code * code
  | Cdnode of code * code * code * code

and lam = { param : string; hidden : hidden; body : code }
and rec_binding = { name : string; arity : int; rhs : code }

type chaos = {
  gc_period : int;
      (** >0: force a collection at pseudo-random allocation points, on
          average one every [gc_period] allocations; 0 disables *)
  poison : bool;
      (** scribble over freed cells and fail any read through a dangling
          pointer, so an unsound escape verdict crashes deterministically *)
  chaos_seed : int;  (** seed of the deterministic fault-injection PRNG *)
}

type t = {
  heap : word H.t;
  check_arenas : bool;
  stats : Stats.t;
  mutable shadow : word list;  (** explicit GC root stack *)
  mutable env_stack : env list;  (** environments of active frames *)
  mutable shadow_low : word list;
  mutable env_low : env list;
      (** per stack, the suffix at the lowest entry it was popped down to
          since the last collection (which resets it to the top), or
          [[]]: the entries below it hold what that collection saw *)
  arena_stacks : (int, word H.arena list) Hashtbl.t;
      (** static id -> dynamic arenas *)
  mutable marked_closures : closure list;
  mutable fuel : int;  (** -1 = unlimited *)
  chaos : chaos;
  mutable rng : int;  (** fault-injection PRNG state *)
}

exception Error of string
exception Out_of_memory = H.Out_of_memory
exception Out_of_fuel

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt
let no_chaos = { gc_period = 0; poison = false; chaos_seed = 0 }

let poison_word = Wint 0x7EADBEEF
(** scribbled into freed cells under [chaos.poison]: a dangling read that
    slips past the barriers yields this recognizable junk instead of a
    plausible [Wnil] *)

let create ?(heap_size = 4096) ?(grow = true) ?(check_arenas = false) ?fuel
    ?(chaos = no_chaos) ?(config = H.legacy) () =
  let stats = Stats.create () in
  (* scrub a cell as it is freed; poisoning makes any later read through
     a stale pointer junk instead of a believable empty cell *)
  let scrub (c : word H.cell) =
    if chaos.poison then begin
      c.H.car <- poison_word;
      c.H.cdr <- poison_word;
      c.H.lbl <- poison_word;
      stats.Stats.poisoned <- stats.Stats.poisoned + 1
    end
    else begin
      c.H.car <- Wnil;
      c.H.cdr <- Wnil;
      c.H.lbl <- Wnil
    end
  in
  let kind_of = function
    | Wint _ | Wbool _ | Wnil | Wleaf -> H.Scalar
    | Wptr a | Wpair a | Wtree a -> H.Ptr a
    | Wprim (_, []) | Wcons_at (_, []) | Wnode_at (_, []) | Wdcons []
    | Wdnode [] ->
        H.Scalar
    | Wclos _ | Wprim _ | Wcons_at _ | Wnode_at _ | Wdcons _ | Wdnode _ ->
        H.Funval
  in
  {
    heap =
      H.create ~heap_size ~grow ~chaos_period:chaos.gc_period ~config ~nil:Wnil ~scrub
        ~kind_of ~stats ();
    check_arenas;
    stats;
    shadow = [];
    env_stack = [];
    shadow_low = [];
    env_low = [];
    arena_stacks = Hashtbl.create 8;
    marked_closures = [];
    fuel = (match fuel with Some f -> f | None -> -1);
    chaos;
    rng = chaos.chaos_seed lxor 0x2545F4914F6CDD1D;
  }

let stats t = t.stats
let live_cells t = H.live t.heap
let free_cells t = H.free_length t.heap
let used_cells t = H.used t.heap
let config t = H.config t.heap

let[@inline] tick m =
  m.stats.Stats.steps <- m.stats.Stats.steps + 1;
  if m.fuel = 0 then raise Out_of_fuel;
  if m.fuel > 0 then m.fuel <- m.fuel - 1

(* A pop that takes the entry at a stack's mark moves the mark to the
   new top, which is included: a letrec fills its slots in the
   environment on top of [env_stack] once its right-hand side has popped
   back to it. *)
let[@inline] push m w = m.shadow <- w :: m.shadow

let[@inline] pop m =
  let l = m.shadow in
  m.shadow <- List.tl l;
  if l == m.shadow_low then m.shadow_low <- m.shadow

let[@inline] push_env m env = m.env_stack <- env :: m.env_stack

let[@inline] pop_env m =
  let l = m.env_stack in
  m.env_stack <- List.tl l;
  if l == m.env_low then m.env_low <- m.env_stack

(* the 48-bit LCG of java.util.Random; the low bits are weak, so draws
   use the high 32 *)
let chaos_draw m =
  m.rng <- ((m.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  m.rng lsr 16

(* a cell read through [car]/[cdr]/[fst]/[snd]/[label]/[left]/[right];
   under poisoning a read of a freed cell is a deterministic crash *)
let cell_read m what a =
  let c = H.get m.heap a in
  if m.chaos.poison && c.H.free then
    error "chaos poison: %s reads cell %d after it was freed (use after free)" what a;
  c

(* ---- garbage collection ------------------------------------------------ *)

(* [f] on every visible binding of [env]: every filled slot of its
   chain that no binder in scope shadows *)
let iter_env f env =
  let hidden = match env with Top -> [] | Arg a -> a.hidden | Group g -> g.hidden in
  let shown d i = not (List.exists (fun (u, j) -> u = d && j = i) hidden) in
  let rec go d = function
    | Top -> ()
    | Arg a ->
        if shown d 0 then f a.arg;
        go (d + 1) a.up
    | Group g ->
        for i = 0 to g.filled - 1 do
          if shown d i then f g.slots.(i)
        done;
        go (d + 1) g.up
  in
  go 0 env


(* one marker for both collection kinds: a minor collection
   ([stop_old:true]) treats old and arena-resident cells as roots-of-
   nothing — it never traverses them, so its pause is proportional to
   the young survivors, not the live set *)
let rec mark_with m ~stop_old w =
  match w with
  | Wint _ | Wbool _ | Wnil | Wleaf -> ()
  | Wptr a | Wpair a | Wtree a ->
      let c = H.get m.heap a in
      if m.chaos.poison && c.H.free then
        error "chaos poison: the collector reached freed cell %d from a live root" a;
      if (not (stop_old && c.H.old)) && not c.H.marked then begin
        c.H.marked <- true;
        m.stats.Stats.marked <- m.stats.Stats.marked + 1;
        mark_with m ~stop_old c.H.car;
        mark_with m ~stop_old c.H.cdr;
        mark_with m ~stop_old c.H.lbl
      end
  | Wclos c ->
      if not c.cmark then begin
        c.cmark <- true;
        m.marked_closures <- c :: m.marked_closures;
        mark_env m ~stop_old c.cenv
      end
  | Wprim (_, args) | Wcons_at (_, args) | Wnode_at (_, args) | Wdcons args
  | Wdnode args ->
      List.iter (mark_with m ~stop_old) args

and mark_env m ~stop_old env = iter_env (mark_with m ~stop_old) env

(* A minor collection marks only the entries from the top down to each
   stack's mark, inclusive.  One below it still holds what the last
   collection marked, so every young cell it reached was promoted then,
   and an old cell reaches a younger one only through the remembered
   sets.  A major collection marks every entry; either kind resets the
   marks to the tops. *)
let mark_roots m ~stop_old =
  let rec scan mark low = function
    | [] -> ()
    | x :: rest as l ->
        mark x;
        if not (stop_old && l == low) then scan mark low rest
  in
  scan (mark_with m ~stop_old) m.shadow_low m.shadow;
  scan (mark_env m ~stop_old) m.env_low m.env_stack;
  m.shadow_low <- m.shadow;
  m.env_low <- m.env_stack

let unmark_closures m =
  List.iter (fun c -> c.cmark <- false) m.marked_closures;
  m.marked_closures <- []

(* a full mark-sweep; under the generational policy this is the major
   collection, promoting every survivor *)
let collect m =
  let t0 = Stats.now_ns () in
  let marked0 = m.stats.Stats.marked and swept0 = m.stats.Stats.swept in
  m.stats.Stats.gc_runs <- m.stats.Stats.gc_runs + 1;
  if H.is_generational m.heap then
    m.stats.Stats.major_gcs <- m.stats.Stats.major_gcs + 1;
  mark_roots m ~stop_old:false;
  H.sweep_all m.heap;
  unmark_closures m;
  let cells =
    m.stats.Stats.marked - marked0 + (m.stats.Stats.swept - swept0)
  in
  Stats.record_pause m.stats ~cells ~ns:(Stats.now_ns () -. t0)

(* a nursery collection: mark from the roots stopping at old cells, scan
   the remembered sets for old-to-young edges, sweep only the nursery
   chain, promote the survivors *)
let minor_collect m =
  let t0 = Stats.now_ns () in
  let marked0 = m.stats.Stats.marked and swept0 = m.stats.Stats.swept in
  let scanned = H.remembered_size m.heap in
  m.stats.Stats.gc_runs <- m.stats.Stats.gc_runs + 1;
  m.stats.Stats.minor_gcs <- m.stats.Stats.minor_gcs + 1;
  mark_roots m ~stop_old:true;
  H.iter_remembered m.heap (fun a ->
      let c = H.get m.heap a in
      if not c.H.free then begin
        mark_with m ~stop_old:true c.H.car;
        mark_with m ~stop_old:true c.H.cdr;
        mark_with m ~stop_old:true c.H.lbl
      end);
  H.sweep_nursery m.heap;
  unmark_closures m;
  let cells =
    m.stats.Stats.marked - marked0 + (m.stats.Stats.swept - swept0) + scanned
  in
  Stats.record_pause m.stats ~cells ~ns:(Stats.now_ns () -. t0)

let collect_minor m = if H.is_generational m.heap then minor_collect m else collect m

(* ---- allocation --------------------------------------------------------- *)

let current_arena m = function
  | Ir.Heap | Ir.Pretenured -> None
  | Ir.Arena sid -> (
      match Hashtbl.find_opt m.arena_stacks sid with
      | Some (a :: _) -> Some a
      | Some [] | None -> error "cons targets arena %d, but no such arena is open" sid)

let hooks =
  { H.minor = minor_collect; major = collect; draw = chaos_draw; arena = current_arena }

let alloc_cell m target hd tl = Wptr (H.alloc m.heap hooks m target hd tl)

(* ---- primitives ---------------------------------------------------------- *)

let type_name = function
  | Wint _ -> "int"
  | Wbool _ -> "bool"
  | Wnil | Wptr _ -> "list"
  | Wpair _ -> "pair"
  | Wleaf | Wtree _ -> "tree"
  | Wclos _ | Wprim _ | Wcons_at _ | Wnode_at _ | Wdcons _ | Wdnode _ -> "function"

let as_int = function Wint n -> n | w -> error "expected an int, got a %s" (type_name w)
let as_bool = function Wbool b -> b | w -> error "expected a bool, got a %s" (type_name w)

(* comparisons and [null] answer with these, allocating nothing *)
let wtrue = Wbool true
let wfalse = Wbool false
let[@inline] wbool b = if b then wtrue else wfalse
let arity_error p n = error "primitive %s applied to %d arguments" (Ast.prim_name p) n

let delta1 m p w =
  match (p, w) with
  | Ast.Not, _ -> wbool (not (as_bool w))
  | Ast.Car, Wptr a -> (cell_read m "car" a).H.car
  | Ast.Car, Wnil -> error "car of nil"
  | Ast.Car, _ -> error "car of a %s" (type_name w)
  | Ast.Cdr, Wptr a -> (cell_read m "cdr" a).H.cdr
  | Ast.Cdr, Wnil -> error "cdr of nil"
  | Ast.Cdr, _ -> error "cdr of a %s" (type_name w)
  | Ast.Null, Wnil -> wtrue
  | Ast.Null, Wptr _ -> wfalse
  | Ast.Null, _ -> error "null of a %s" (type_name w)
  | Ast.Fst, Wpair a -> (cell_read m "fst" a).H.car
  | Ast.Fst, _ -> error "fst of a %s" (type_name w)
  | Ast.Snd, Wpair a -> (cell_read m "snd" a).H.cdr
  | Ast.Snd, _ -> error "snd of a %s" (type_name w)
  | Ast.Isleaf, Wleaf -> wtrue
  | Ast.Isleaf, Wtree _ -> wfalse
  | Ast.Isleaf, _ -> error "isleaf of a %s" (type_name w)
  | Ast.Label, Wtree a -> (cell_read m "label" a).H.lbl
  | Ast.Label, Wleaf -> error "label of leaf"
  | Ast.Label, _ -> error "label of a %s" (type_name w)
  | Ast.Left, Wtree a -> (cell_read m "left" a).H.car
  | Ast.Left, Wleaf -> error "left of leaf"
  | Ast.Left, _ -> error "left of a %s" (type_name w)
  | Ast.Right, Wtree a -> (cell_read m "right" a).H.cdr
  | Ast.Right, Wleaf -> error "right of leaf"
  | Ast.Right, _ -> error "right of a %s" (type_name w)
  | _, _ -> arity_error p 1

(* [Cons], [Pair] and [Node] allocate, and are applied by [alloc2] and
   [apply] *)
let delta2 p a b =
  match p with
  | Ast.Add -> Wint (as_int a + as_int b)
  | Ast.Sub -> Wint (as_int a - as_int b)
  | Ast.Mul -> Wint (as_int a * as_int b)
  | Ast.Div ->
      let d = as_int b in
      if d = 0 then error "division by zero" else Wint (as_int a / d)
  | Ast.Mod ->
      let d = as_int b in
      if d = 0 then error "modulo by zero" else Wint (as_int a mod d)
  | Ast.Eq -> wbool (as_int a = as_int b)
  | Ast.Ne -> wbool (as_int a <> as_int b)
  | Ast.Lt -> wbool (as_int a < as_int b)
  | Ast.Le -> wbool (as_int a <= as_int b)
  | Ast.Gt -> wbool (as_int a > as_int b)
  | Ast.Ge -> wbool (as_int a >= as_int b)
  | Ast.And -> wbool (as_bool a && as_bool b)
  | Ast.Or -> wbool (as_bool a || as_bool b)
  | _ -> arity_error p 2

let do_dcons m p hd tl =
  match p with
  | Wptr a ->
      let c = H.get m.heap a in
      if c.H.free then error "DCONS on a freed cell";
      c.H.car <- hd;
      c.H.cdr <- tl;
      (* reuse can write young references into an old or arena cell *)
      H.barrier m.heap a;
      m.stats.Stats.dcons_reuses <- m.stats.Stats.dcons_reuses + 1;
      Wptr a
  | Wnil -> error "DCONS on nil (no cell to reuse)"
  | w -> error "DCONS on a %s (no cell to reuse)" (type_name w)

let do_dnode m p l x r =
  match p with
  | Wtree a ->
      let c = H.get m.heap a in
      if c.H.free then error "DNODE on a freed cell";
      c.H.car <- l;
      c.H.lbl <- x;
      c.H.cdr <- r;
      H.barrier m.heap a;
      m.stats.Stats.dcons_reuses <- m.stats.Stats.dcons_reuses + 1;
      Wtree a
  | Wleaf -> error "DNODE on leaf (no cell to reuse)"
  | w -> error "DNODE on a %s (no cell to reuse)" (type_name w)

(* a tree node at [target]: its children are checked before the cell is
   allocated, and the label written after *)
let alloc_node m target l x r =
  (match (l, r) with
  | (Wleaf | Wtree _), (Wleaf | Wtree _) -> ()
  | _ -> error "node: children must be trees");
  match alloc_cell m target l r with
  | Wptr addr ->
      (H.get m.heap addr).H.lbl <- x;
      H.barrier m.heap addr;
      Wtree addr
  | _ -> assert false

(* ---- arena safety check --------------------------------------------------- *)

exception Reaches_arena

(* whether a cell of dynamic arena [sid] is reachable from [v], the root
   stack or the visible bindings of the active frames; a closure is
   walked once, flagged with [cmark] until the walk ends *)
let reachable_into_arena m v sid =
  let seen = Hashtbl.create 256 in
  let walked = ref [] in
  let rec walk = function
    | Wint _ | Wbool _ | Wnil | Wleaf -> ()
    | Wptr a | Wpair a | Wtree a ->
        if not (Hashtbl.mem seen a) then begin
          Hashtbl.add seen a ();
          let c = H.get m.heap a in
          if c.H.arena = sid then raise_notrace Reaches_arena;
          walk c.H.car;
          walk c.H.cdr;
          walk c.H.lbl
        end
    | Wclos c ->
        if not c.cmark then begin
          c.cmark <- true;
          walked := c :: !walked;
          iter_env walk c.cenv
        end
    | Wprim (_, args) | Wcons_at (_, args) | Wnode_at (_, args) | Wdcons args
    | Wdnode args ->
        List.iter walk args
  in
  let hit =
    match
      walk v;
      List.iter walk m.shadow;
      List.iter (iter_env walk) m.env_stack
    with
    | () -> false
    | exception Reaches_arena -> true
  in
  List.iter (fun c -> c.cmark <- false) !walked;
  hit

(* ---- resolution ------------------------------------------------------------ *)

(* A name in scope: the level of its frame (the outermost frame is level
   1), its slot there, and whether the frame is a letrec group. *)
type place = { level : int; slot : int; group : bool }

(* [names] holds the innermost place of each name in scope at [depth]
   frames: a binder adds its names on entry and removes them on exit.
   [shadowed] is every (level, slot) a name in scope shadows. *)
type scope = { names : (string, place) Hashtbl.t; depth : int; shadowed : (int * int) list }

(* the scope inside a binder of [xs], one new frame with a slot per
   name, and the binder's hidden positions: a later name of the group
   shadows an earlier one, and each name what it is bound over *)
let enter sc ~group xs =
  let depth = sc.depth + 1 in
  let shadowed = ref sc.shadowed in
  List.iteri
    (fun slot x ->
      (match Hashtbl.find_opt sc.names x with
      | Some p -> shadowed := (p.level, p.slot) :: !shadowed
      | None -> ());
      Hashtbl.add sc.names x { level = depth; slot; group })
    xs;
  ( { sc with depth; shadowed = !shadowed },
    List.map (fun (level, slot) -> (depth - level, slot)) !shadowed )

let leave sc xs = List.iter (Hashtbl.remove sc.names) xs

let rec lam_arity = function Ir.Lam (_, b) -> 1 + lam_arity b | _ -> 0

(* the head of a nest of applications and its arguments, first first *)
let rec spine e args = match e with Ir.App (f, a) -> spine f (a :: args) | f -> (f, args)

let rec resolve sc (e : Ir.expr) =
  let go = resolve sc in
  match e with
  | Ir.Const (Ast.Cint n) -> Cword (Wint n)
  | Ir.Const (Ast.Cbool b) -> Cword (wbool b)
  | Ir.Const Ast.Cnil -> Cword Wnil
  | Ir.Const Ast.Cleaf -> Cword Wleaf
  | Ir.Prim p -> Cword (Wprim (p, []))
  | Ir.ConsAt a -> Cword (Wcons_at (a, []))
  | Ir.NodeAt a -> Cword (Wnode_at (a, []))
  | Ir.Dcons -> Cword (Wdcons [])
  | Ir.Dnode -> Cword (Wdnode [])
  | Ir.Var x -> (
      match Hashtbl.find_opt sc.names x with
      | Some { level; slot; group = true } -> Cslot (sc.depth - level, slot, x)
      | Some { level; group = false; _ } -> Carg (sc.depth - level)
      | None -> Cunbound x)
  | Ir.Lam (x, b) ->
      let inner, hidden = enter sc ~group:false [ x ] in
      let body = resolve inner b in
      leave sc [ x ];
      Clam { param = x; hidden; body }
  | Ir.App (Ir.App (Ir.App (Ir.App (Ir.Dnode, p), l), x), r) -> Cdnode (go p, go l, go x, go r)
  | Ir.App (Ir.App (Ir.App (Ir.Dcons, p), hd), tl) -> Cdcons (go p, go hd, go tl)
  | Ir.App (Ir.App (Ir.App (Ir.Prim Ast.Node, l), x), r) -> Cnode (Ir.Heap, go l, go x, go r)
  | Ir.App (Ir.App (Ir.App (Ir.NodeAt t, l), x), r) -> Cnode (t, go l, go x, go r)
  | Ir.App (Ir.App (Ir.Prim Ast.Cons, a), b) -> Ccons (Ir.Heap, go a, go b)
  | Ir.App (Ir.App (Ir.ConsAt t, a), b) -> Ccons (t, go a, go b)
  | Ir.App (Ir.App (Ir.Prim Ast.Pair, a), b) -> Cpair (go a, go b)
  | Ir.App (Ir.App (Ir.Prim p, a), b) when Ast.prim_arity p = 2 -> Cprim2 (p, go a, go b)
  | Ir.App (Ir.Prim p, a) when Ast.prim_arity p = 1 -> Cprim1 (p, go a)
  | Ir.App (f, a) -> (
      match spine e [] with
      | (Ir.Var _ | Ir.Lam _ | Ir.If _ | Ir.Letrec _ | Ir.WithArena _ as head), (_ :: _ :: _ as args)
        ->
          Ccall (go head, Array.of_list (List.map go args))
      | _ -> Capp (go f, go a))
  | Ir.If (c, t, f) -> Cif (go c, go t, go f)
  | Ir.Letrec (bs, body) ->
      let names = List.map fst bs in
      let inner, hidden = enter sc ~group:true names in
      let binding (name, rhs) = { name; arity = lam_arity rhs; rhs = resolve inner rhs } in
      let bs = Array.of_list (List.map binding bs) in
      let body = resolve inner body in
      leave sc names;
      Cletrec (bs, hidden, body)
  | Ir.WithArena (kind, sid, b) -> Carena (kind, sid, go b)

(* ---- evaluation ------------------------------------------------------------ *)

(* the frame [up] links above [env]; resolution keeps it inside the chain *)
let rec frame env up =
  if up = 0 then env
  else
    match env with
    | Arg a -> frame a.up (up - 1)
    | Group g -> frame g.up (up - 1)
    | Top -> assert false

let count_hint m c va =
  if List.mem 1 c.hints then
    match va with
    | Wptr _ | Wnil -> m.stats.Stats.hints_accepted <- m.stats.Stats.hints_accepted + 1
    | _ -> ()

(* under currying, hint [i] of a closure is hint [i-1] of the closure
   its body returns when that body is the next lambda of the same nest *)
let later_hints hints = List.filter_map (fun i -> if i > 1 then Some (i - 1) else None) hints

let rec eval_code m env c =
  tick m;
  match c with
  | Cword w -> w
  | Carg up -> ( match frame env up with Arg a -> a.arg | Top | Group _ -> assert false)
  | Cslot (up, i, x) -> (
      match frame env up with
      | Group g ->
          if i < g.filled then g.slots.(i)
          else error "letrec binding %s is used before its definition is evaluated" x
      | Top | Arg _ -> assert false)
  | Cunbound x -> error "unbound identifier %s at run time" x
  | Clam lam -> Wclos { lam; cenv = env; cmark = false; hints = [] }
  | Capp (f, a) ->
      let vf = eval_code m env f in
      push m vf;
      let va = eval_code m env a in
      pop m;
      apply m vf va
  (* a nest of [n] applications ticks once per application before its
     head, as the nested applications did *)
  | Ccall (f, args) ->
      for _ = 2 to Array.length args do
        tick m
      done;
      call m env (eval_code m env f) args 0
  | Cif (c, t, f) ->
      if as_bool (eval_code m env c) then eval_code m env t else eval_code m env f
  | Cletrec (bs, hidden, body) ->
      let slots = Array.make (Array.length bs) Wnil in
      let env' = Group { slots; filled = 0; up = env; hidden } in
      push_env m env';
      (match env' with
      | Group g ->
          Array.iteri
            (fun i b ->
              let v = eval_code m env' b.rhs in
              tag_hints m b v;
              slots.(i) <- v;
              g.filled <- i + 1)
            bs
      | Top | Arg _ -> assert false);
      let v = eval_code m env' body in
      pop_env m;
      v
  | Carena (kind, sid, body) ->
      if not (H.config m.heap).H.regions then
        (* regions disabled (a chaos-harness coverage configuration):
           no arena is opened, and the allocator sends this arena's
           sites to the GC heap instead *)
        eval_code m env body
      else begin
        let a = H.open_arena m.heap ~kind in
        let stack = Option.value ~default:[] (Hashtbl.find_opt m.arena_stacks sid) in
        Hashtbl.replace m.arena_stacks sid (a :: stack);
        let v = eval_code m env body in
        Hashtbl.replace m.arena_stacks sid stack;
        if m.check_arenas && reachable_into_arena m v a.H.dyn_id then
          error "arena safety violation: a cell of arena %d escapes its scope" sid;
        H.close_arena m.heap a;
        v
      end
  (* A fused node ticks as the applications it replaces: once per
     application and once for the primitive before its first operand,
     then once per application after each operand.  Each operand stays
     rooted while the later ones run. *)
  | Cprim1 (p, a) ->
      tick m;
      let va = eval_code m env a in
      tick m;
      delta1 m p va
  | Cprim2 (p, a, b) ->
      tick m;
      tick m;
      let va = eval_code m env a in
      tick m;
      let vb = eval_code m env b in
      tick m;
      delta2 p va vb
  | Ccons (target, a, b) -> alloc2 m env target a b
  | Cpair (a, b) -> (
      match alloc2 m env Ir.Heap a b with Wptr addr -> Wpair addr | _ -> assert false)
  | Cnode (target, l, x, r) ->
      tick m;
      tick m;
      tick m;
      let vl = eval_code m env l in
      tick m;
      push m vl;
      let vx = eval_code m env x in
      tick m;
      push m vx;
      let vr = eval_code m env r in
      tick m;
      push m vr;
      let t = alloc_node m target vl vx vr in
      pop m;
      pop m;
      pop m;
      t
  | Cdcons (p, hd, tl) ->
      tick m;
      tick m;
      tick m;
      let vp = eval_code m env p in
      tick m;
      push m vp;
      let vhd = eval_code m env hd in
      tick m;
      push m vhd;
      let vtl = eval_code m env tl in
      tick m;
      pop m;
      pop m;
      do_dcons m vp vhd vtl
  | Cdnode (p, l, x, r) ->
      tick m;
      tick m;
      tick m;
      tick m;
      let vp = eval_code m env p in
      tick m;
      push m vp;
      let vl = eval_code m env l in
      tick m;
      push m vl;
      let vx = eval_code m env x in
      tick m;
      push m vx;
      let vr = eval_code m env r in
      tick m;
      pop m;
      pop m;
      pop m;
      do_dnode m vp vl vx vr

(* [a] is rooted while [b] runs, and both are around the allocation *)
and alloc2 m env target a b =
  tick m;
  tick m;
  let va = eval_code m env a in
  tick m;
  push m va;
  let vb = eval_code m env b in
  tick m;
  push m vb;
  let r = alloc_cell m target va vb in
  pop m;
  pop m;
  r

(* the arguments of a call from the [i]th on, each applied as its
   application was; a closure whose body is the next lambda of its nest
   takes its argument in [curry] *)
and call m env vf args i =
  push m vf;
  let va = eval_code m env args.(i) in
  pop m;
  if i = Array.length args - 1 then apply m vf va
  else
    let r =
      match vf with
      | Wclos ({ lam = { body = Clam next; _ }; _ } as c) -> curry m vf c next va
      | _ -> apply m vf va
    in
    call m env r args (i + 1)

(* [apply m vf va] for a closure [c] whose body is the lambda [next]:
   the same ticks and hint counts, and the closure the body makes.
   Nothing between the two ticks can collect, so [apply]'s roots are
   pushed only where the second tick runs out of fuel and leaves them. *)
and curry m vf c next va =
  tick m;
  count_hint m c va;
  let env' = Arg { arg = va; up = c.cenv; hidden = c.lam.hidden } in
  if m.fuel = 0 then begin
    push m vf;
    push m va;
    push_env m env'
  end;
  tick m;
  Wclos { lam = next; cenv = env'; cmark = false; hints = later_hints c.hints }

(* tag a letrec-bound closure with the advisory dead-spine hints of its
   binder, so calls through the binding can be counted when they bind a
   hinted parameter to an actual spine *)
and tag_hints m b v =
  match v with
  | Wclos c when c.hints = [] ->
      let cfg = H.config m.heap in
      if cfg.H.liveness_hints <> [] then begin
        let idxs = ref [] in
        for i = b.arity downto 1 do
          if H.hinted_dead_spine cfg ~fname:b.name ~arg:i then idxs := i :: !idxs
        done;
        if !idxs <> [] then begin
          c.hints <- !idxs;
          m.stats.Stats.hint_sites <-
            m.stats.Stats.hint_sites + List.length !idxs
        end
      end
  | _ -> ()

and apply m vf va =
  tick m;
  push m vf;
  push m va;
  let result =
    match vf with
    | Wclos c ->
        count_hint m c va;
        let env' = Arg { arg = va; up = c.cenv; hidden = c.lam.hidden } in
        push_env m env';
        let r = eval_code m env' c.lam.body in
        pop_env m;
        (match (c.lam.body, r) with
        | Clam _, Wclos rc when rc.hints = [] -> rc.hints <- later_hints c.hints
        | _ -> ());
        r
    | Wprim (Ast.Cons, [ hd ]) -> alloc_cell m Ir.Heap hd va
    | Wprim (Ast.Pair, [ a ]) -> (
        match alloc_cell m Ir.Heap a va with
        | Wptr addr -> Wpair addr
        | _ -> assert false)
    | Wprim (Ast.Node, [ l; x ]) -> alloc_node m Ir.Heap l x va
    | Wprim (p, []) when Ast.prim_arity p = 1 -> delta1 m p va
    | Wprim (p, [ a ]) when Ast.prim_arity p = 2 -> delta2 p a va
    | Wprim (p, collected) -> Wprim (p, collected @ [ va ])
    | Wcons_at (target, []) -> Wcons_at (target, [ va ])
    | Wcons_at (target, [ hd ]) -> alloc_cell m target hd va
    | Wcons_at (_, _) -> error "annotated cons applied to too many arguments"
    | Wnode_at (target, ([] | [ _ ] as args)) -> Wnode_at (target, args @ [ va ])
    | Wnode_at (target, [ l; x ]) -> alloc_node m target l x va
    | Wnode_at (_, _) -> error "annotated node applied to too many arguments"
    | Wdcons [ p; hd ] -> do_dcons m p hd va
    | Wdcons args when List.length args < 2 -> Wdcons (args @ [ va ])
    | Wdcons _ -> error "DCONS applied to too many arguments"
    | Wdnode [ p; l; x ] -> do_dnode m p l x va
    | Wdnode args when List.length args < 3 -> Wdnode (args @ [ va ])
    | Wdnode _ -> error "DNODE applied to too many arguments"
    | w -> error "cannot apply a %s as a function" (type_name w)
  in
  pop m;
  pop m;
  result

let eval m e =
  let before = Stats.snapshot m.stats in
  let code = resolve { names = Hashtbl.create 64; depth = 0; shadowed = [] } e in
  Fun.protect
    ~finally:(fun () -> Stats.global_add ~before ~after:m.stats)
    (fun () -> eval_code m Top code)

let run m p = eval m (Ir.of_program p)

let read_value m w =
  let budget = ref 1_000_000 in
  let rec go w =
    decr budget;
    if !budget <= 0 then error "read_value: structure too large or cyclic";
    match w with
    | Wint n -> Nml.Eval.Vint n
    | Wbool b -> Nml.Eval.Vbool b
    | Wnil -> Nml.Eval.Vnil
    | Wptr a ->
        let c = H.get m.heap a in
        if c.H.free then error "read_value: dangling pointer to a freed cell";
        Nml.Eval.Vcons (go c.H.car, go c.H.cdr)
    | Wpair a ->
        let c = H.get m.heap a in
        if c.H.free then error "read_value: dangling pointer to a freed cell";
        Nml.Eval.Vpair (go c.H.car, go c.H.cdr)
    | Wleaf -> Nml.Eval.Vleaf
    | Wtree a ->
        let c = H.get m.heap a in
        if c.H.free then error "read_value: dangling pointer to a freed cell";
        Nml.Eval.Vnode (go c.H.car, go c.H.lbl, go c.H.cdr)
    | Wclos _ | Wprim _ | Wcons_at _ | Wnode_at _ | Wdcons _ | Wdnode _ ->
        error "read_value: result is a function"
  in
  go w

let cell_words m a =
  let c = H.get m.heap a in
  if c.H.free then error "cell_words: address %d is a freed cell" a;
  (c.H.car, c.H.cdr, c.H.lbl)

let rec pp_word m ppf = function
  | Wint n -> Format.pp_print_int ppf n
  | Wbool b -> Format.pp_print_bool ppf b
  | Wnil -> Format.pp_print_string ppf "[]"
  | Wptr a ->
      let c = H.get m.heap a in
      Format.fprintf ppf "@[<hov 1>(%a ::@ %a)@]" (pp_word m) c.H.car (pp_word m) c.H.cdr
  | Wpair a ->
      let c = H.get m.heap a in
      Format.fprintf ppf "@[<hov 1>(%a,@ %a)@]" (pp_word m) c.H.car (pp_word m) c.H.cdr
  | Wleaf -> Format.pp_print_string ppf "leaf"
  | Wtree a ->
      let c = H.get m.heap a in
      Format.fprintf ppf "@[<hov 1>(node %a %a %a)@]" (pp_word m) c.H.car (pp_word m)
        c.H.lbl (pp_word m) c.H.cdr
  | Wclos { lam = { param; _ }; _ } -> Format.fprintf ppf "<fun %s>" param
  | Wprim (p, args) -> Format.fprintf ppf "<prim %s/%d>" (Ast.prim_name p) (List.length args)
  | Wcons_at (_, args) -> Format.fprintf ppf "<cons@/%d>" (List.length args)
  | Wnode_at (_, args) -> Format.fprintf ppf "<node@/%d>" (List.length args)
  | Wdcons args -> Format.fprintf ppf "<dcons/%d>" (List.length args)
  | Wdnode args -> Format.fprintf ppf "<dnode/%d>" (List.length args)
