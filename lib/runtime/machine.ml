module Ast = Nml.Ast
module Env = Map.Make (String)
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
  param : string;
  body : Ir.expr;
  cenv : env;
  mutable cmark : bool;
  mutable hints : int list;
      (** 1-based parameters the spine-liveness analysis proved dead;
          tagged when a letrec binding with advisory hints is filled *)
}
and env = binding Env.t
and binding = Ready of word | Slot of word option ref

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
  grow : bool;
  check_arenas : bool;
  stats : Stats.t;
  mutable shadow : word list;  (** explicit GC root stack *)
  mutable env_stack : env list;  (** environments of active frames *)
  arena_stacks : (int, word H.arena list) Hashtbl.t;
      (** static id -> dynamic arenas *)
  mutable marked_closures : closure list;
  mutable fuel : int;  (** -1 = unlimited *)
  chaos : chaos;
  mutable rng : int;  (** fault-injection PRNG state *)
}

exception Error of string
exception Out_of_memory
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
    heap = H.create ~heap_size ~config ~nil:Wnil ~scrub ~kind_of ~stats ();
    grow;
    check_arenas;
    stats;
    shadow = [];
    env_stack = [];
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

let tick m =
  m.stats.Stats.steps <- m.stats.Stats.steps + 1;
  if m.fuel = 0 then raise Out_of_fuel;
  if m.fuel > 0 then m.fuel <- m.fuel - 1

let push m w = m.shadow <- w :: m.shadow
let pop m = m.shadow <- List.tl m.shadow

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

and mark_env m ~stop_old env =
  Env.iter
    (fun _ b ->
      match b with
      | Ready w -> mark_with m ~stop_old w
      | Slot { contents = Some w } -> mark_with m ~stop_old w
      | Slot { contents = None } -> ())
    env

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
  List.iter (mark_with m ~stop_old:false) m.shadow;
  List.iter (mark_env m ~stop_old:false) m.env_stack;
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
  List.iter (mark_with m ~stop_old:true) m.shadow;
  List.iter (mark_env m ~stop_old:true) m.env_stack;
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

let alloc_cell m target hd tl =
  let h = m.heap in
  let cfg = H.config h in
  let gen = H.is_generational h in
  (* gc chaos: force a collection at pseudo-random allocation points, so
     any value the evaluator failed to root is swept out from under it;
     generational runs force mostly minor collections, with an
     occasional major, so both paths see mid-region interruptions *)
  if m.chaos.gc_period > 0 && chaos_draw m mod m.chaos.gc_period = 0 then begin
    m.stats.Stats.chaos_gcs <- m.stats.Stats.chaos_gcs + 1;
    if gen && chaos_draw m mod 4 <> 0 then minor_collect m else collect m
  end;
  let arena = if cfg.H.regions then current_arena m target else None in
  let where =
    match target with
    | Ir.Pretenured when gen && cfg.H.pretenure && arena = None -> H.Old
    | _ -> H.Young
  in
  (* the nursery threshold: collect it before it overflows *)
  (if gen && arena = None && where = H.Young
   && H.young_count h >= max 1 cfg.H.nursery
  then minor_collect m);
  let addr =
    match H.take_free h with
    | Some a -> a
    | None -> (
        match H.bump h with
        | Some a -> a
        | None ->
            if arena <> None then begin
              (* arena allocation models stack / local-heap storage: it
                 never triggers a collection, the store just grows *)
              H.grow_store h;
              Option.get (H.bump h)
            end
            else begin
              (* heap allocation with an exhausted store: collect, then
                 retry; generational heaps try a nursery collection
                 before resorting to a full one *)
              if gen && H.young_count h > 0 then begin
                minor_collect m;
                if not (H.has_free h) then collect m
              end
              else collect m;
              match H.take_free h with
              | Some a -> a
              | None ->
                  if m.grow then begin
                    H.grow_store h;
                    Option.get (H.bump h)
                  end
                  else raise Out_of_memory
            end)
  in
  let c = H.get h addr in
  assert c.H.free;
  c.H.car <- hd;
  c.H.cdr <- tl;
  H.register h addr
    (match arena with Some ar -> H.In_arena ar | None -> where);
  (* init barrier: an old or arena-resident cell may be born holding
     young references *)
  (match (arena, where) with
  | Some _, _ | None, H.Old -> H.barrier h addr
  | None, _ -> ());
  Wptr addr

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

let delta m p args =
  match (p, args) with
  | Ast.Add, [ a; b ] -> Wint (as_int a + as_int b)
  | Ast.Sub, [ a; b ] -> Wint (as_int a - as_int b)
  | Ast.Mul, [ a; b ] -> Wint (as_int a * as_int b)
  | Ast.Div, [ a; b ] ->
      let d = as_int b in
      if d = 0 then error "division by zero" else Wint (as_int a / d)
  | Ast.Mod, [ a; b ] ->
      let d = as_int b in
      if d = 0 then error "modulo by zero" else Wint (as_int a mod d)
  | Ast.Eq, [ a; b ] -> Wbool (as_int a = as_int b)
  | Ast.Ne, [ a; b ] -> Wbool (as_int a <> as_int b)
  | Ast.Lt, [ a; b ] -> Wbool (as_int a < as_int b)
  | Ast.Le, [ a; b ] -> Wbool (as_int a <= as_int b)
  | Ast.Gt, [ a; b ] -> Wbool (as_int a > as_int b)
  | Ast.Ge, [ a; b ] -> Wbool (as_int a >= as_int b)
  | Ast.And, [ a; b ] -> Wbool (as_bool a && as_bool b)
  | Ast.Or, [ a; b ] -> Wbool (as_bool a || as_bool b)
  | Ast.Not, [ a ] -> Wbool (not (as_bool a))
  | Ast.Car, [ Wptr a ] -> (cell_read m "car" a).H.car
  | Ast.Car, [ Wnil ] -> error "car of nil"
  | Ast.Car, [ w ] -> error "car of a %s" (type_name w)
  | Ast.Cdr, [ Wptr a ] -> (cell_read m "cdr" a).H.cdr
  | Ast.Cdr, [ Wnil ] -> error "cdr of nil"
  | Ast.Cdr, [ w ] -> error "cdr of a %s" (type_name w)
  | Ast.Null, [ Wnil ] -> Wbool true
  | Ast.Null, [ Wptr _ ] -> Wbool false
  | Ast.Null, [ w ] -> error "null of a %s" (type_name w)
  | Ast.Fst, [ Wpair a ] -> (cell_read m "fst" a).H.car
  | Ast.Fst, [ w ] -> error "fst of a %s" (type_name w)
  | Ast.Snd, [ Wpair a ] -> (cell_read m "snd" a).H.cdr
  | Ast.Snd, [ w ] -> error "snd of a %s" (type_name w)
  | Ast.Isleaf, [ Wleaf ] -> Wbool true
  | Ast.Isleaf, [ Wtree _ ] -> Wbool false
  | Ast.Isleaf, [ w ] -> error "isleaf of a %s" (type_name w)
  | Ast.Label, [ Wtree a ] -> (cell_read m "label" a).H.lbl
  | Ast.Label, [ Wleaf ] -> error "label of leaf"
  | Ast.Label, [ w ] -> error "label of a %s" (type_name w)
  | Ast.Left, [ Wtree a ] -> (cell_read m "left" a).H.car
  | Ast.Left, [ Wleaf ] -> error "left of leaf"
  | Ast.Left, [ w ] -> error "left of a %s" (type_name w)
  | Ast.Right, [ Wtree a ] -> (cell_read m "right" a).H.cdr
  | Ast.Right, [ Wleaf ] -> error "right of leaf"
  | Ast.Right, [ w ] -> error "right of a %s" (type_name w)
  | (Ast.Cons | Ast.Pair | Ast.Node), _ -> assert false (* handled by the allocator *)
  | _, _ -> error "primitive %s applied to %d arguments" (Ast.prim_name p) (List.length args)

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

(* ---- arena safety check --------------------------------------------------- *)

let reachable_into_arena m roots sid =
  let seen = Hashtbl.create 256 in
  let seen_clos = ref [] in
  let hit = ref false in
  let rec walk = function
    | Wint _ | Wbool _ | Wnil | Wleaf -> ()
    | Wptr a | Wpair a | Wtree a ->
        if not (Hashtbl.mem seen a) then begin
          Hashtbl.add seen a ();
          let c = H.get m.heap a in
          if c.H.arena = sid then hit := true;
          walk c.H.car;
          walk c.H.cdr;
          walk c.H.lbl
        end
    | Wclos c ->
        if not (List.memq c !seen_clos) then begin
          seen_clos := c :: !seen_clos;
          Env.iter
            (fun _ b ->
              match b with
              | Ready w -> walk w
              | Slot { contents = Some w } -> walk w
              | Slot { contents = None } -> ())
            c.cenv
        end
    | Wprim (_, args) | Wcons_at (_, args) | Wnode_at (_, args) | Wdcons args
    | Wdnode args ->
        List.iter walk args
  in
  List.iter walk roots;
  !hit

(* ---- evaluation ------------------------------------------------------------ *)

let lookup env x =
  match Env.find_opt x env with
  | Some (Ready w) -> w
  | Some (Slot { contents = Some w }) -> w
  | Some (Slot { contents = None }) ->
      error "letrec binding %s is used before its definition is evaluated" x
  | None -> error "unbound identifier %s at run time" x

let rec eval_ir m env (e : Ir.expr) : word =
  tick m;
  match e with
  | Ir.Const (Ast.Cint n) -> Wint n
  | Ir.Const (Ast.Cbool b) -> Wbool b
  | Ir.Const Ast.Cnil -> Wnil
  | Ir.Const Ast.Cleaf -> Wleaf
  | Ir.Prim p -> Wprim (p, [])
  | Ir.ConsAt a -> Wcons_at (a, [])
  | Ir.NodeAt a -> Wnode_at (a, [])
  | Ir.Dcons -> Wdcons []
  | Ir.Dnode -> Wdnode []
  | Ir.Var x -> lookup env x
  | Ir.Lam (x, b) ->
      Wclos { param = x; body = b; cenv = env; cmark = false; hints = [] }
  | Ir.App (f, a) ->
      let vf = eval_ir m env f in
      push m vf;
      let va = eval_ir m env a in
      pop m;
      apply m vf va
  | Ir.If (c, t, f) -> if as_bool (eval_ir m env c) then eval_ir m env t else eval_ir m env f
  | Ir.Letrec (bs, body) ->
      let slots = List.map (fun (x, _) -> (x, ref None)) bs in
      let env' =
        List.fold_left (fun env (x, slot) -> Env.add x (Slot slot) env) env slots
      in
      m.env_stack <- env' :: m.env_stack;
      List.iter2
        (fun (x, rhs) (_, slot) ->
          let v = eval_ir m env' rhs in
          tag_hints m x rhs v;
          slot := Some v)
        bs slots;
      let v = eval_ir m env' body in
      m.env_stack <- List.tl m.env_stack;
      v
  | Ir.WithArena (kind, sid, body) ->
      if not (H.config m.heap).H.regions then
        (* regions disabled (a chaos-harness coverage configuration):
           no arena is opened, and the allocator sends this arena's
           sites to the GC heap instead *)
        eval_ir m env body
      else begin
        let a = H.open_arena m.heap ~kind in
        let stack = Option.value ~default:[] (Hashtbl.find_opt m.arena_stacks sid) in
        Hashtbl.replace m.arena_stacks sid (a :: stack);
        let v = eval_ir m env body in
        Hashtbl.replace m.arena_stacks sid stack;
        if m.check_arenas then begin
          let roots = (v :: m.shadow) @ List.concat_map env_words m.env_stack in
          if reachable_into_arena m roots a.H.dyn_id then
            error "arena safety violation: a cell of arena %d escapes its scope" sid
        end;
        H.close_arena m.heap a;
        v
      end

and env_words env =
  Env.fold
    (fun _ b acc ->
      match b with
      | Ready w -> w :: acc
      | Slot { contents = Some w } -> w :: acc
      | Slot { contents = None } -> acc)
    env []

(* tag a letrec-bound closure with the advisory dead-spine hints of its
   binder, so calls through the binding can be counted when they bind a
   hinted parameter to an actual spine *)
and tag_hints m x rhs v =
  match v with
  | Wclos c when c.hints = [] ->
      let cfg = H.config m.heap in
      if cfg.H.liveness_hints <> [] then begin
        let rec lam_arity = function
          | Ir.Lam (_, b) -> 1 + lam_arity b
          | _ -> 0
        in
        let idxs = ref [] in
        for i = lam_arity rhs downto 1 do
          if H.hinted_dead_spine cfg ~fname:x ~arg:i then idxs := i :: !idxs
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
    | Wclos ({ param; body; cenv; _ } as c) ->
        (if List.mem 1 c.hints then
           match va with
           | Wptr _ | Wnil ->
               m.stats.Stats.hints_accepted <- m.stats.Stats.hints_accepted + 1
           | _ -> ());
        let env' = Env.add param (Ready va) cenv in
        m.env_stack <- env' :: m.env_stack;
        let r = eval_ir m env' body in
        m.env_stack <- List.tl m.env_stack;
        (* under currying, hint [i] of this closure is hint [i-1] of
           the closure its body returns — propagate only when the body
           is syntactically the next lambda of the same nest *)
        (match (body, r) with
        | Ir.Lam _, Wclos rc when rc.hints = [] ->
            let rest =
              List.filter_map
                (fun i -> if i > 1 then Some (i - 1) else None)
                c.hints
            in
            if rest <> [] then rc.hints <- rest
        | _ -> ());
        r
    | Wprim (Ast.Cons, [ hd ]) -> alloc_cell m Ir.Heap hd va
    | Wprim (Ast.Pair, [ a ]) -> (
        match alloc_cell m Ir.Heap a va with
        | Wptr addr -> Wpair addr
        | _ -> assert false)
    | Wprim (Ast.Node, [ l; x ]) -> (
        (match (l, va) with
        | (Wleaf | Wtree _), (Wleaf | Wtree _) -> ()
        | _ -> error "node: children must be trees");
        match alloc_cell m Ir.Heap l va with
        | Wptr addr ->
            (H.get m.heap addr).H.lbl <- x;
            H.barrier m.heap addr;
            Wtree addr
        | _ -> assert false)
    | Wprim (p, collected) ->
        let args = collected @ [ va ] in
        if List.length args = Ast.prim_arity p then delta m p args else Wprim (p, args)
    | Wcons_at (target, []) -> Wcons_at (target, [ va ])
    | Wcons_at (target, [ hd ]) -> alloc_cell m target hd va
    | Wcons_at (_, _) -> error "annotated cons applied to too many arguments"
    | Wnode_at (target, ([] | [ _ ] as args)) -> Wnode_at (target, args @ [ va ])
    | Wnode_at (target, [ l; x ]) -> (
        (match (l, va) with
        | (Wleaf | Wtree _), (Wleaf | Wtree _) -> ()
        | _ -> error "node: children must be trees");
        match alloc_cell m target l va with
        | Wptr addr ->
            (H.get m.heap addr).H.lbl <- x;
            H.barrier m.heap addr;
            Wtree addr
        | _ -> assert false)
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
  Fun.protect
    ~finally:(fun () -> Stats.global_add ~before ~after:m.stats)
    (fun () -> eval_ir m Env.empty e)

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
  | Wclos { param; _ } -> Format.fprintf ppf "<fun %s>" param
  | Wprim (p, args) -> Format.fprintf ppf "<prim %s/%d>" (Ast.prim_name p) (List.length args)
  | Wcons_at (_, args) -> Format.fprintf ppf "<cons@/%d>" (List.length args)
  | Wnode_at (_, args) -> Format.fprintf ppf "<node@/%d>" (List.length args)
  | Wdcons args -> Format.fprintf ppf "<dcons/%d>" (List.length args)
  | Wdnode args -> Format.fprintf ppf "<dnode/%d>" (List.length args)
