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
  mutable cmark : int;  (** the {!Heap.stamp} of the last traversal that traced it *)
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
  | Carena of int * code
  | Cprim1 of Ast.prim * code
  | Cprim2 of Ast.prim * code * code
  | Ccons of Ir.alloc * code * code
  | Cpair of code * code
  | Cnode of Ir.alloc * code * code * code
  | Cdcons of code * code * code
  | Cdnode of code * code * code * code

and lam = { param : string; hidden : hidden; body : code }
and rec_binding = { name : string; arity : int; rhs : code }

type t = {
  heap : word H.t;
  stats : Stats.t;
  mutable shadow : word list;  (** explicit GC root stack *)
  mutable env_stack : env list;  (** environments of active frames *)
  mutable shadow_low : word list;
  mutable env_low : env list;
      (** per stack, the suffix at the lowest entry it was popped down to
          since the last collection (which resets it to the top), or
          [[]]: the entries below it hold what that collection saw *)
  mutable fuel : int;  (** -1 = unlimited *)
}

exception Error = H.Error
exception Out_of_memory = H.Out_of_memory
exception Out_of_fuel = H.Out_of_fuel

let error = H.error

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

(* [visit] on every word a function-like word holds: a closure's
   visible bindings, the first time this traversal reaches it, and a
   partial application's arguments *)
let children ~stamp visit = function
  | Wclos c ->
      if c.cmark <> stamp then begin
        c.cmark <- stamp;
        iter_env visit c.cenv
      end
  | Wprim (_, args) | Wcons_at (_, args) | Wnode_at (_, args) | Wdcons args | Wdnode args ->
      List.iter visit args
  | Wint _ | Wbool _ | Wnil | Wleaf | Wptr _ | Wpair _ | Wtree _ -> ()

(* the marker of one collection, of either kind: a minor collection
   ([stop_old:true]) treats old and arena-resident cells as roots-of-
   nothing — it never traverses them, so its pause is proportional to
   the young survivors, not the live set *)
let marker m ~stop_old =
  let stamp = H.stamp m.heap in
  let rec mark w =
    match w with
    | Wint _ | Wbool _ | Wnil | Wleaf -> ()
    | Wptr a | Wpair a | Wtree a ->
        let c = H.mark m.heap ~stop_old a in
        if not c.H.free then begin
          mark c.H.car;
          mark c.H.cdr;
          mark c.H.lbl
        end
    | Wclos _ | Wprim _ | Wcons_at _ | Wnode_at _ | Wdcons _ | Wdnode _ ->
        children ~stamp mark w
  in
  mark

(* A minor collection marks only the entries from the top down to each
   stack's mark, inclusive.  One below it still holds what the last
   collection marked, so every young cell it reached was promoted then,
   and an old cell reaches a younger one only through the remembered
   sets.  A major collection marks every entry; either kind resets the
   marks to the tops. *)
let mark_roots m ~stop_old mark =
  let rec scan f low = function
    | [] -> ()
    | x :: rest as l ->
        f x;
        if not (stop_old && l == low) then scan f low rest
  in
  scan mark m.shadow_low m.shadow;
  scan (iter_env mark) m.env_low m.env_stack;
  m.shadow_low <- m.shadow;
  m.env_low <- m.env_stack

let collect m = H.collect m.heap
let collect_minor m = H.collect_minor m.heap

(* ---- creation ------------------------------------------------------------- *)

let kind_of = function
  | Wint _ | Wbool _ | Wnil | Wleaf -> H.Scalar
  | Wptr a | Wpair a | Wtree a -> H.Ptr a
  | Wprim (_, []) | Wcons_at (_, []) | Wnode_at (_, []) | Wdcons [] | Wdnode [] -> H.Scalar
  | Wclos _ | Wprim _ | Wcons_at _ | Wnode_at _ | Wdcons _ | Wdnode _ -> H.Funval

(* scribbled into freed cells under [chaos.poison]: a dangling read that
   slips past the checks yields this recognizable junk instead of a
   plausible [Wnil] *)
let poison_word = Wint 0x7EADBEEF

let create ?(heap_size = 4096) ?(grow = true) ?(check_arenas = false) ?fuel
    ?(chaos = H.no_chaos) ?(config = H.legacy) () =
  let stats = Stats.create () in
  let m =
    {
      heap =
        H.create ~heap_size ~grow ~check_arenas ~chaos ~config ~nil:Wnil ~poison:poison_word
          ~kind_of ~stats ();
      stats;
      shadow = [];
      env_stack = [];
      shadow_low = [];
      env_low = [];
      fuel = (match fuel with Some f -> f | None -> -1);
    }
  in
  H.set_tracer m.heap { H.marker = marker m; roots = mark_roots m; children };
  m

let stats t = t.stats
let live_cells t = H.live t.heap
let free_cells t = H.free_length t.heap
let used_cells t = H.used t.heap
let config t = H.config t.heap

let alloc_cell m target hd tl = Wptr (H.alloc m.heap target hd tl)

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
  | Ast.Car, Wptr a -> (H.read m.heap "car" a).H.car
  | Ast.Car, Wnil -> error "car of nil"
  | Ast.Car, _ -> error "car of a %s" (type_name w)
  | Ast.Cdr, Wptr a -> (H.read m.heap "cdr" a).H.cdr
  | Ast.Cdr, Wnil -> error "cdr of nil"
  | Ast.Cdr, _ -> error "cdr of a %s" (type_name w)
  | Ast.Null, Wnil -> wtrue
  | Ast.Null, Wptr _ -> wfalse
  | Ast.Null, _ -> error "null of a %s" (type_name w)
  | Ast.Fst, Wpair a -> (H.read m.heap "fst" a).H.car
  | Ast.Fst, _ -> error "fst of a %s" (type_name w)
  | Ast.Snd, Wpair a -> (H.read m.heap "snd" a).H.cdr
  | Ast.Snd, _ -> error "snd of a %s" (type_name w)
  | Ast.Isleaf, Wleaf -> wtrue
  | Ast.Isleaf, Wtree _ -> wfalse
  | Ast.Isleaf, _ -> error "isleaf of a %s" (type_name w)
  | Ast.Label, Wtree a -> (H.read m.heap "label" a).H.lbl
  | Ast.Label, Wleaf -> error "label of leaf"
  | Ast.Label, _ -> error "label of a %s" (type_name w)
  | Ast.Left, Wtree a -> (H.read m.heap "left" a).H.car
  | Ast.Left, Wleaf -> error "left of leaf"
  | Ast.Left, _ -> error "left of a %s" (type_name w)
  | Ast.Right, Wtree a -> (H.read m.heap "right" a).H.cdr
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
      H.dcons m.heap a hd tl;
      p
  | Wnil -> error "DCONS on nil (no cell to reuse)"
  | w -> error "DCONS on a %s (no cell to reuse)" (type_name w)

let do_dnode m p l x r =
  match p with
  | Wtree a ->
      H.dnode m.heap a l x r;
      p
  | Wleaf -> error "DNODE on leaf (no cell to reuse)"
  | w -> error "DNODE on a %s (no cell to reuse)" (type_name w)

(* a tree node at [target]: its children are checked before the cell is
   allocated *)
let alloc_node m target l x r =
  (match (l, r) with
  | (Wleaf | Wtree _), (Wleaf | Wtree _) -> ()
  | _ -> error "node: children must be trees");
  Wtree (H.alloc_node m.heap target l x r)

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
  | Ir.WithArena (_, sid, b) -> Carena (sid, go b)

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
  | Clam lam -> Wclos { lam; cenv = env; cmark = 0; hints = [] }
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
  | Carena (sid, body) ->
      H.open_arena m.heap sid;
      let v = eval_code m env body in
      (* the arena walk's roots: the body's result, the root stack and
         the visible bindings of the active frames *)
      H.close_arena m.heap sid ~roots:(fun visit ->
          visit v;
          List.iter visit m.shadow;
          List.iter (iter_env visit) m.env_stack);
      v
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
  Wclos { lam = next; cenv = env'; cmark = 0; hints = later_hints c.hints }

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
