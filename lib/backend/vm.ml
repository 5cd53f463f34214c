(* A compact register VM over the closure-converted bytecode.

   One instruction array per function, a flat register file per frame,
   flat closure environments, real tail calls (the frame is replaced,
   not stacked).  The heap primitives honor the optimizer's verdicts
   natively: [Alloc] carries its [Ir.alloc] target (nursery, arena, or
   tenured-at-birth), [Reuse] overwrites the scrutinee's cell in place,
   and [Openarena]/[Closearena] delimit bump-allocated regions that are
   reclaimed wholesale.

   Storage is the word-polymorphic {!Runtime.Heap} the tree-walking
   machine uses, and so is the collector: the heap owns allocation, the
   collections and their counters, the per-cell mark step, chaos
   (forced collections at pseudo-random allocation points, poisoned
   freed cells), the arena stacks with the [--check-arenas] walk, and
   the in-place [DCONS]/[DNODE] writes.  The VM supplies only its roots
   (the frame chain from [m.top], under the root masks below) and how
   to trace its own values ([Clos] environments and partial arguments,
   filled [Slotv]s), so it slots directly into the differential
   soundness oracle as a third leg next to the reference interpreter
   and the storage simulator.

   Root masks: registers are handed out as a stack and never cleared,
   so a dead register may still hold a stale pointer.  At compile time
   one backward liveness pass per function records, at every safepoint
   (each [Alloc], [Node] and [Closearena], and the return point of each
   [Call] and [Apply]), the set of registers whose value is read again.
   A stopped frame sits at [pc - 1], on one of those instructions; the
   collector and the arena escape check read only the registers of its
   mask (and the whole closure environment), so a dead register roots
   nothing.

   Frames: each frame links to its caller and knows its depth, so the
   active frames are the chain from the current one down; a call builds
   the callee on top and a return resumes the caller.  [m.low] is the
   lowest depth that ran since the last collection: a return lowers it
   to the caller's depth, and any collection resets it to the current
   frame.  A minor collection walks only the frames at or above it (the
   generational stack collection of Cheng, Harper and Lee), so an
   n-deep recursion no longer rescans all n frames per nursery; a major
   collection walks them all.

   Dispatch: the loop is a tail-recursive [step] that carries the
   current frame, its code array and its pc, so an instruction reads no
   machine state to find itself.  The pc is written back to the frame
   only where something reads it: before [Alloc], [Node] and
   [Closearena] (the collector and the arena walk read the mask at
   [pc - 1]) and before [Call] and [Apply] (the return point).  [Alloc]
   and [Node] also store the frame in [m.top], where the collector
   starts its walk.  Operand loads are inlined,
   the hot primitives ([car]/[cdr]/[null] of a list, integer [+], [-],
   [<], [<=], [=]) are decoded in the dispatch match and everything
   else falls through to [delta1]/[delta2], constants are shared
   values, and a call fills a register file allocated inline at its
   exact size.  Each instruction costs one tick of fuel. *)

module Ast = Nml.Ast
module Ir = Runtime.Ir
module H = Runtime.Heap
module Stats = Runtime.Stats

type value =
  | Int of int
  | Bool of bool
  | Nil
  | Leaf
  | Ptr of int
  | Pair of int
  | Tree of int
  | Clos of clos
  | Slotv of slot

and clos = {
  fn : int;
  env : value array;
  pap : value list;  (** collected arguments, in application order *)
  mutable cmark : int;  (** the {!Runtime.Heap.stamp} of the last traversal that traced it *)
  mutable hints : int list;
      (** 1-based parameters the spine-liveness analysis proved dead *)
}

and slot = { sname : string; mutable sv : value option }

type opnd =
  | Reg of int
  | Envv of int
  | Const of value  (** an int, bool, nil or leaf, shared by every load *)

type instr =
  | Move of int * opnd
  | Prim1 of int * Ast.prim * opnd
  | Prim2 of int * Ast.prim * opnd * opnd
  | Alloc of int * Anf.shape * Ir.alloc * opnd * opnd  (** cons or pair *)
  | Node of int * Ir.alloc * opnd * opnd * opnd  (** left, label, right *)
  | Dcons of int * opnd * opnd * opnd  (** cell, head, tail *)
  | Dnode of int * opnd * opnd * opnd * opnd  (** cell, left, label, right *)
  | Clo of int * int * opnd array  (** dst, function id, raw captures *)
  | Call of int * int * opnd * opnd array
      (** dst, function id, the closure, the full argument row *)
  | Tailcall of int * opnd * opnd array
  | Apply of int * opnd * opnd
  | Tailapply of opnd * opnd
  | Jmp of int
  | Jifnot of opnd * int
  | Ret of opnd
  | Mkslot of int * string
  | Setslot of int * opnd * string
  | Openarena of Ir.arena_kind * int
  | Closearena of int * opnd

module IS = Set.Make (Int)

type func = {
  fid : int;
  fname : string;
  arity : int;
  nregs : int;
  nenv : int;
  code : instr array;
  roots : IS.t array;
      (** per pc, the registers live at that safepoint; empty elsewhere *)
}

type code = { funcs : func array; entry : func; report : Closure.report }

let report (c : code) = c.report

exception Error = H.Error
exception Out_of_memory = H.Out_of_memory
exception Out_of_fuel = H.Out_of_fuel
exception Internal of string

let () =
  Printexc.register_printer (function
    | Internal msg -> Some ("the bytecode backend broke an invariant: " ^ msg)
    | _ -> None)

let error = H.error
let internal fmt = Format.kasprintf (fun m -> raise (Internal m)) fmt

(* ---- compilation ---------------------------------------------------------- *)

module SMap = Map.Make (String)

type emitter = {
  mutable instrs : instr array;  (* the first [len] slots are emitted *)
  mutable len : int;
  mutable maxreg : int;
}

let emitter () = { instrs = [||]; len = 0; maxreg = 0 }

let emit e i =
  if e.len = Array.length e.instrs then begin
    let bigger = Array.make (max 16 (2 * e.len)) i in
    Array.blit e.instrs 0 bigger 0 e.len;
    e.instrs <- bigger
  end;
  e.instrs.(e.len) <- i;
  e.len <- e.len + 1

(* emit a placeholder jump, returning its index for later patching *)
let emit_hole e i =
  let at = e.len in
  emit e i;
  at

let patch e at i = e.instrs.(at) <- i
let emitted e = Array.sub e.instrs 0 e.len

let note e depth = if depth > e.maxreg then e.maxreg <- depth

let opnd_of_atom map = function
  | Anf.Aconst (Ast.Cint n) -> Const (Int n)
  | Anf.Aconst (Ast.Cbool b) -> Const (Bool b)
  | Anf.Aconst Ast.Cnil -> Const Nil
  | Anf.Aconst Ast.Cleaf -> Const Leaf
  | Anf.Avar x -> (
      match SMap.find_opt x map with
      | Some o -> o
      | None -> internal "compile: unbound variable %s" x)

(* ---- root masks ----------------------------------------------------------- *)

let use s = function Reg r -> IS.add r s | Envv _ | Const _ -> s
let uses s az = Array.fold_left use s az

let is_safepoint = function
  | Alloc _ | Node _ | Closearena _ | Call _ | Apply _ -> true
  | _ -> false

let rec first_safepoint code pc =
  if pc = Array.length code || is_safepoint code.(pc) then pc
  else first_safepoint code (pc + 1)

(* One backward pass: every jump is forward (targets are patched to the
   end of the code emitted so far), so a successor's live-in is final
   before its predecessors are visited, and no mask reads the live-in of
   an instruction before the first safepoint.  An allocation's mask is
   its live-in (its operands are still roots while the allocator
   collects); a call's is its live-out without the destination, which
   the return overwrites. *)
let root_masks code =
  let n = Array.length code in
  (* [live.(n)] is past the last instruction: nothing is live there *)
  let live = Array.make (n + 1) IS.empty and roots = Array.make n IS.empty in
  let target pc t =
    if t <= pc || t > n then internal "compile: jump %d -> %d" pc t;
    live.(t)
  in
  let safepoint pc s =
    roots.(pc) <- s;
    s
  in
  for pc = n - 1 downto first_safepoint code 0 do
    let next = live.(pc + 1) in
    live.(pc) <-
      (match code.(pc) with
      | Move (d, a) | Prim1 (d, _, a) -> use (IS.remove d next) a
      | Prim2 (d, _, a, b) -> use (use (IS.remove d next) a) b
      | Alloc (d, _, _, a, b) -> safepoint pc (use (use (IS.remove d next) a) b)
      | Node (d, _, l, x, r) ->
          safepoint pc (use (use (use (IS.remove d next) l) x) r)
      | Dcons (d, c, hd, tl) -> use (use (use (IS.remove d next) c) hd) tl
      | Dnode (d, c, l, x, r) -> use (use (use (use (IS.remove d next) c) l) x) r
      | Clo (d, _, caps) -> uses (IS.remove d next) caps
      | Call (d, _, f, az) -> uses (use (safepoint pc (IS.remove d next)) f) az
      | Apply (d, f, a) -> use (use (safepoint pc (IS.remove d next)) f) a
      | Tailcall (_, f, az) -> uses (use IS.empty f) az
      | Tailapply (f, a) -> use (use IS.empty f) a
      | Ret a -> use IS.empty a
      | Jmp t -> target pc t
      | Jifnot (a, t) -> use (IS.union next (target pc t)) a
      | Mkslot (d, _) -> IS.remove d next
      | Setslot (d, a, _) -> use (IS.add d next) a
      | Openarena _ -> next
      | Closearena (_, a) -> safepoint pc (use next a))
  done;
  roots

(* a register to drop from one mask, for [dropping_root] *)
let dropped_root = ref None

let masks fname code =
  let roots = root_masks code in
  (match !dropped_root with
  | Some (f, pc, r, hits) when f = fname && pc < Array.length roots && IS.mem r roots.(pc)
    ->
      roots.(pc) <- IS.remove r roots.(pc);
      incr hits
  | _ -> ());
  roots

let dropping_root ~fname ~pc ~reg k =
  let hits = ref 0 in
  dropped_root := Some (fname, pc, reg, hits);
  let v = Fun.protect ~finally:(fun () -> dropped_root := None) k in
  (v, !hits)

(* with [true], a return leaves the collector's mark above the caller,
   for [keeping_mark_on_return] *)
let return_keeps_mark = ref false

let keeping_mark_on_return k =
  return_keeps_mark := true;
  Fun.protect ~finally:(fun () -> return_keeps_mark := false) k

let compile_prog (p : Closure.prog) : code =
  let compiled = Array.make (Array.length p.Closure.funs) None in
  let rec compile_fid fid = compiled.(fid) <- Some (comp_fun p.Closure.funs.(fid))
  and comp_fun (f : Closure.fundef) =
    let e = emitter () in
    let map, nparams =
      List.fold_left
        (fun (m, i) x -> (SMap.add x (Reg i) m, i + 1))
        (SMap.empty, 0) f.Closure.params
    in
    let map =
      List.fold_left
        (fun (m, i) x -> (SMap.add x (Envv i) m, i + 1))
        (map, 0) f.Closure.free
      |> fst
    in
    note e nparams;
    comp_anf e map nparams ~tail:true f.Closure.body |> ignore;
    let code = emitted e in
    {
      fid = f.Closure.fid;
      fname = f.Closure.fname;
      arity = nparams;
      nregs = e.maxreg;
      nenv = List.length f.Closure.free;
      code;
      roots = masks f.Closure.fname code;
    }
  (* compile [a]; in tail position every path ends in Ret/Tailcall and
     [None] is returned, otherwise the result operand comes back *)
  and comp_anf e map depth ~tail (a : Closure.kanf) : opnd option =
    match a with
    | Closure.Klet (x, Closure.Katom at, body) ->
        (* alias: no move, no register *)
        comp_anf e (SMap.add x (opnd_of_atom map at) map) depth ~tail body
    | Closure.Klet (x, ce, body) ->
        let r = depth in
        note e (r + 1);
        comp_ce e map ~dst:r ~depth:(r + 1) ce;
        comp_anf e (SMap.add x (Reg r) map) (r + 1) ~tail body
    | Closure.Kletrec (bs, body) ->
        let map, depth =
          List.fold_left
            (fun (m, d) (x, _) ->
              note e (d + 1);
              emit e (Mkslot (d, x));
              (SMap.add x (Reg d) m, d + 1))
            (map, depth) bs
        in
        List.iter
          (fun (x, rhs) ->
            let o =
              match comp_anf e map depth ~tail:false rhs with
              | Some o -> o
              | None -> internal "compile: letrec rhs has no result"
            in
            let slot =
              match SMap.find x map with
              | Reg r -> r
              | _ -> internal "compile: letrec slot is not a register"
            in
            emit e (Setslot (slot, o, x)))
          bs;
        comp_anf e map depth ~tail body
    | Closure.Kret ce -> (
        match (tail, ce) with
        | true, Closure.Kcall (fid, f, az) ->
            emit e
              (Tailcall
                 (fid, opnd_of_atom map f, Array.of_list (List.map (opnd_of_atom map) az)));
            None
        | true, Closure.Kapp (f, a) ->
            emit e (Tailapply (opnd_of_atom map f, opnd_of_atom map a));
            None
        | true, Closure.Kif (c, t, f) ->
            let hole = emit_hole e (Jifnot (opnd_of_atom map c, -1)) in
            comp_anf e map depth ~tail:true t |> ignore;
            patch e hole (Jifnot (opnd_of_atom map c, e.len));
            comp_anf e map depth ~tail:true f |> ignore;
            None
        | true, Closure.Kblock b ->
            comp_anf e map depth ~tail:true b |> ignore;
            None
        | true, Closure.Katom at ->
            emit e (Ret (opnd_of_atom map at));
            None
        | true, ce ->
            let r = depth in
            note e (r + 1);
            comp_ce e map ~dst:r ~depth:(r + 1) ce;
            emit e (Ret (Reg r));
            None
        | false, Closure.Katom at -> Some (opnd_of_atom map at)
        | false, ce ->
            let r = depth in
            note e (r + 1);
            comp_ce e map ~dst:r ~depth:(r + 1) ce;
            Some (Reg r))
  (* non-tail compilation of a computation into register [dst];
     temporaries live at [depth] and above and die with the scope *)
  and comp_ce e map ~dst ~depth (ce : Closure.cexpr) : unit =
    let o = opnd_of_atom map in
    let opnds az = Array.of_list (List.map o az) in
    match ce with
    | Closure.Katom at -> emit e (Move (dst, o at))
    | Closure.Kprim (p, [ a ]) -> emit e (Prim1 (dst, p, o a))
    | Closure.Kprim (p, [ a; b ]) -> emit e (Prim2 (dst, p, o a, o b))
    | Closure.Kprim (p, az) ->
        internal "compile: primitive %s applied to %d arguments" (Ast.prim_name p)
          (List.length az)
    | Closure.Kalloc (al, ((Anf.Scons | Anf.Spair) as sh), [ a; b ]) ->
        emit e (Alloc (dst, sh, al, o a, o b))
    | Closure.Kalloc (al, Anf.Snode, [ l; x; r ]) ->
        emit e (Node (dst, al, o l, o x, o r))
    | Closure.Kalloc _ -> internal "compile: malformed allocation"
    | Closure.Kreuse (Anf.Rcons, [ c; hd; tl ]) ->
        emit e (Dcons (dst, o c, o hd, o tl))
    | Closure.Kreuse (Anf.Rnode, [ c; l; x; r ]) ->
        emit e (Dnode (dst, o c, o l, o x, o r))
    | Closure.Kreuse _ -> internal "compile: malformed reuse"
    | Closure.Kclos (fid, caps) ->
        (* recursion through [comp_fun] terminates: a body only builds
           closures of the lambdas nested inside it *)
        if compiled.(fid) = None then compile_fid fid;
        emit e (Clo (dst, fid, opnds caps))
    | Closure.Kcall (fid, f, az) ->
        emit e (Call (dst, fid, opnd_of_atom map f, opnds az))
    | Closure.Kapp (f, a) ->
        emit e (Apply (dst, opnd_of_atom map f, opnd_of_atom map a))
    | Closure.Kif (c, t, f) ->
        let hole = emit_hole e (Jifnot (opnd_of_atom map c, -1)) in
        let join o = emit e (Move (dst, o)) in
        (match comp_anf e map depth ~tail:false t with
        | Some o -> join o
        | None -> internal "compile: non-tail branch has no result");
        let jend = emit_hole e (Jmp (-1)) in
        patch e hole (Jifnot (opnd_of_atom map c, e.len));
        (match comp_anf e map depth ~tail:false f with
        | Some o -> join o
        | None -> internal "compile: non-tail branch has no result");
        patch e jend (Jmp e.len)
    | Closure.Karena (k, sid, b) ->
        emit e (Openarena (k, sid));
        (match comp_anf e map depth ~tail:false b with
        | Some o -> emit e (Move (dst, o))
        | None -> internal "compile: arena body has no result");
        emit e (Closearena (sid, Reg dst))
    | Closure.Kblock b ->
        (match comp_anf e map depth ~tail:false b with
        | Some o -> emit e (Move (dst, o))
        | None -> internal "compile: block has no result")
  in
  let entry =
    let e = emitter () in
    (match comp_anf e SMap.empty 0 ~tail:false p.Closure.entry with
    | Some o -> emit e (Ret o)
    | None -> internal "compile: entry has no result");
    let code = emitted e in
    {
      fid = -1;
      fname = "entry";
      arity = 0;
      nregs = e.maxreg;
      nenv = 0;
      code;
      roots = masks "entry" code;
    }
  in
  (* compile anything not reached from the entry (dead letrec bindings
     still need bodies: a [Clo] for them may sit on a dead path) *)
  Array.iteri (fun i c -> if c = None then compile_fid i) compiled;
  let funcs =
    Array.map
      (function Some f -> f | None -> internal "compile: missing function")
      compiled
  in
  { funcs; entry; report = p.Closure.report }

let compile (ir : Ir.expr) : code =
  let a = Anf.lower ir in
  (match Anf.verify a with
  | Ok () -> ()
  | Error m -> internal "ANF verification failed: %s" m);
  compile_prog (Closure.convert a)

(* ---- the machine state ---------------------------------------------------- *)

type frame = {
  func : func;
  mutable pc : int;
  regs : value array;
  env : value array;
  dst : int;  (** caller register receiving the return value *)
  caller : frame;  (** the frame a return resumes; [bottom] under the entry *)
  depth : int;  (** active frames below this one *)
}

let rec bottom =
  {
    func =
      { fid = -2; fname = "bottom"; arity = 0; nregs = 0; nenv = 0; code = [||]; roots = [||] };
    pc = 0;
    regs = [||];
    env = [||];
    dst = -1;
    caller = bottom;
    depth = -1;
  }

type t = {
  heap : value H.t;
  stats : Stats.t;
  mutable fuel : int;  (** -1 = unlimited *)
  mutable top : frame;  (** the current frame, stored at each allocation *)
  mutable low : int;
      (** the lowest depth that ran since the last collection: a frame
          below it still holds what the last collection saw *)
}

let[@inline] tick m =
  m.stats.Stats.steps <- m.stats.Stats.steps + 1;
  if m.fuel = 0 then raise Out_of_fuel;
  if m.fuel > 0 then m.fuel <- m.fuel - 1

let type_name = function
  | Int _ -> "int"
  | Bool _ -> "bool"
  | Nil | Ptr _ -> "list"
  | Pair _ -> "pair"
  | Leaf | Tree _ -> "tree"
  | Clos _ -> "function"
  | Slotv _ -> "binding"

(* ---- garbage collection --------------------------------------------------- *)

(* [visit] on every value a closure (the first time this traversal
   reaches it) or a filled letrec slot holds *)
let children ~stamp visit = function
  | Clos c ->
      if c.cmark <> stamp then begin
        c.cmark <- stamp;
        Array.iter visit c.env;
        List.iter visit c.pap
      end
  | Slotv { sv = Some v; _ } -> visit v
  | Slotv { sv = None; _ } | Int _ | Bool _ | Nil | Leaf | Ptr _ | Pair _ | Tree _ -> ()

(* the marker of one collection *)
let marker m ~stop_old =
  let stamp = H.stamp m.heap in
  let rec mark v =
    match v with
    | Int _ | Bool _ | Nil | Leaf -> ()
    | Ptr a | Pair a | Tree a ->
        let c = H.mark m.heap ~stop_old a in
        if not c.H.free then begin
          mark c.H.car;
          mark c.H.cdr;
          mark c.H.lbl
        end
    | Clos _ | Slotv _ -> children ~stamp mark v
  in
  mark

(* a stopped frame sits on the safepoint it last executed *)
let live_regs fr = fr.func.roots.(fr.pc - 1)

(* [visit] on the live registers and the environment of [fr] and of
   every frame below it down to depth [floor] *)
let rec iter_frames visit ~floor fr =
  if fr.depth >= floor then begin
    IS.iter (fun r -> visit fr.regs.(r)) (live_regs fr);
    Array.iter visit fr.env;
    iter_frames visit ~floor fr.caller
  end

(* A minor collection marks only the frames at or above [m.low].  One
   below it has not run since the last collection, so its registers and
   environment hold what that collection saw, and every young cell they
   reached was promoted then; an old cell reaches a younger one only
   through the remembered sets.  The frame at [m.low] is included: the
   return that lowered the mark wrote into it.  Either kind of
   collection leaves the mark at the current frame. *)
let mark_roots m ~stop_old mark =
  iter_frames mark ~floor:(if stop_old then m.low else 0) m.top;
  m.low <- m.top.depth

let kind_of = function
  | Int _ | Bool _ | Nil | Leaf -> H.Scalar
  | Ptr a | Pair a | Tree a -> H.Ptr a
  | Clos _ | Slotv _ -> H.Funval

let poison_value = Int 0x7EADBEEF

let create ?(heap_size = 4096) ?(grow = true) ?(check_arenas = false) ?fuel
    ?(chaos = H.no_chaos) ?(config = H.legacy) () =
  let stats = Stats.create () in
  let m =
    {
      heap =
        H.create ~heap_size ~grow ~check_arenas ~chaos ~config ~nil:Nil ~poison:poison_value
          ~kind_of ~stats ();
      stats;
      fuel = (match fuel with Some f -> f | None -> -1);
      top = bottom;
      low = 0;
    }
  in
  H.set_tracer m.heap { H.marker = marker m; roots = mark_roots m; children };
  m

let stats t = t.stats
let live_cells t = H.live t.heap
let free_cells t = H.free_length t.heap
let used_cells t = H.used t.heap
let config t = H.config t.heap

(* ---- primitives ----------------------------------------------------------- *)

let as_int = function Int n -> n | v -> error "expected an int, got a %s" (type_name v)
let not_a_bool v = error "expected a bool, got a %s" (type_name v)
let[@inline] as_bool = function Bool b -> b | v -> not_a_bool v
let[@inline] of_bool b = if b then Bool true else Bool false

(* [step] decodes [car]/[cdr] of a [Ptr] and [null] of a list itself;
   only their error cases reach here *)
let delta1 m p a =
  match (p, a) with
  | Ast.Not, a -> of_bool (not (as_bool a))
  | Ast.Car, Nil -> error "car of nil"
  | Ast.Car, v -> error "car of a %s" (type_name v)
  | Ast.Cdr, Nil -> error "cdr of nil"
  | Ast.Cdr, v -> error "cdr of a %s" (type_name v)
  | Ast.Null, v -> error "null of a %s" (type_name v)
  | Ast.Fst, Pair a -> (H.read m.heap "fst" a).H.car
  | Ast.Fst, v -> error "fst of a %s" (type_name v)
  | Ast.Snd, Pair a -> (H.read m.heap "snd" a).H.cdr
  | Ast.Snd, v -> error "snd of a %s" (type_name v)
  | Ast.Isleaf, Leaf -> Bool true
  | Ast.Isleaf, Tree _ -> Bool false
  | Ast.Isleaf, v -> error "isleaf of a %s" (type_name v)
  | Ast.Label, Tree a -> (H.read m.heap "label" a).H.lbl
  | Ast.Label, Leaf -> error "label of leaf"
  | Ast.Label, v -> error "label of a %s" (type_name v)
  | Ast.Left, Tree a -> (H.read m.heap "left" a).H.car
  | Ast.Left, Leaf -> error "left of leaf"
  | Ast.Left, v -> error "left of a %s" (type_name v)
  | Ast.Right, Tree a -> (H.read m.heap "right" a).H.cdr
  | Ast.Right, Leaf -> error "right of leaf"
  | Ast.Right, v -> error "right of a %s" (type_name v)
  | _ -> internal "primitive %s applied to 1 argument" (Ast.prim_name p)

let delta2 p a b =
  match p with
  | Ast.Add -> Int (as_int a + as_int b)
  | Ast.Sub -> Int (as_int a - as_int b)
  | Ast.Mul -> Int (as_int a * as_int b)
  | Ast.Div ->
      let d = as_int b in
      if d = 0 then error "division by zero" else Int (as_int a / d)
  | Ast.Mod ->
      let d = as_int b in
      if d = 0 then error "modulo by zero" else Int (as_int a mod d)
  | Ast.Eq -> of_bool (as_int a = as_int b)
  | Ast.Ne -> of_bool (as_int a <> as_int b)
  | Ast.Lt -> of_bool (as_int a < as_int b)
  | Ast.Le -> of_bool (as_int a <= as_int b)
  | Ast.Gt -> of_bool (as_int a > as_int b)
  | Ast.Ge -> of_bool (as_int a >= as_int b)
  | Ast.And -> of_bool (as_bool a && as_bool b)
  | Ast.Or -> of_bool (as_bool a || as_bool b)
  | _ -> internal "primitive %s applied to 2 arguments" (Ast.prim_name p)

let do_dcons m p hd tl =
  match p with
  | Ptr a ->
      H.dcons m.heap a hd tl;
      p
  | Nil -> error "DCONS on nil (no cell to reuse)"
  | v -> error "DCONS on a %s (no cell to reuse)" (type_name v)

let do_dnode m p l x r =
  match p with
  | Tree a ->
      H.dnode m.heap a l x r;
      p
  | Leaf -> error "DNODE on leaf (no cell to reuse)"
  | v -> error "DNODE on a %s (no cell to reuse)" (type_name v)

let do_alloc m sh al a b =
  match sh with
  | Anf.Scons -> Ptr (H.alloc m.heap al a b)
  | Anf.Spair -> Pair (H.alloc m.heap al a b)
  | Anf.Snode -> internal "malformed allocation"

let do_node m al l x r =
  (match (l, r) with
  | (Leaf | Tree _), (Leaf | Tree _) -> ()
  | _ -> error "node: children must be trees");
  Tree (H.alloc_node m.heap al l x r)

(* ---- execution ------------------------------------------------------------ *)

let unset_slot s =
  error "letrec binding %s is used before its definition is evaluated" s.sname

let[@inline] deref = function
  | Slotv { sv = Some v; _ } -> v
  | Slotv s -> unset_slot s
  | v -> v

let[@inline] load fr = function
  | Reg i -> deref fr.regs.(i)
  | Envv i -> deref fr.env.(i)
  | Const v -> v

let[@inline] load_raw fr = function
  | Reg i -> fr.regs.(i)
  | Envv i -> fr.env.(i)
  | Const v -> v

(* count accepted liveness hints: a call binding a hinted-dead
   parameter to an actual spine is the moment the collector's advisory
   metadata pays off, and the counter makes that observable *)
let note_hints m (c : clos) callee =
  match c.hints with
  | [] -> ()
  | hints ->
      List.iter
        (fun i ->
          if i >= 1 && i <= callee.func.arity then
            match callee.regs.(i - 1) with
            | Ptr _ | Nil ->
                m.stats.Stats.hints_accepted <- m.stats.Stats.hints_accepted + 1
            | _ -> ())
        hints

(* tag a letrec-bound closure with the advisory dead-spine hints of its
   binder, so calls through it are counted *)
let tag_hints m funcs name v =
  let cfg = H.config m.heap in
  if cfg.H.liveness_hints <> [] then
    match v with
    | Clos ({ pap = []; _ } as c) ->
        let arity =
          if c.fn >= 0 && c.fn < Array.length funcs then funcs.(c.fn).arity else 0
        in
        let idxs = ref [] in
        for i = arity downto 1 do
          if H.hinted_dead_spine cfg ~fname:name ~arg:i then idxs := i :: !idxs
        done;
        if !idxs <> [] then begin
          c.hints <- !idxs;
          m.stats.Stats.hint_sites <- m.stats.Stats.hint_sites + List.length !idxs
        end
    | _ -> ()

(* a fresh register file of exactly [n] registers: small ones are
   allocated inline (through a variable, since an all-constant literal
   of five or more elements is copied by a C call), so a register past
   [nregs] still fails its bounds check *)
let[@inline] regfile n =
  let z = Nil in
  match n with
  | 0 -> [||]
  | 1 -> [| z |]
  | 2 -> [| z; z |]
  | 3 -> [| z; z; z |]
  | 4 -> [| z; z; z; z |]
  | 5 -> [| z; z; z; z; z |]
  | 6 -> [| z; z; z; z; z; z |]
  | 7 -> [| z; z; z; z; z; z; z |]
  | 8 -> [| z; z; z; z; z; z; z; z |]
  | n -> Array.make n z

(* the frame a call of [c] enters above [caller]; the caller fills the
   parameter registers in place *)
let callee_frame funcs (c : clos) ~dst ~caller =
  if c.fn < 0 || c.fn >= Array.length funcs then
    internal "call of unknown function %d" c.fn;
  let f = funcs.(c.fn) in
  {
    func = f;
    pc = 0;
    regs = regfile (Int.max f.nregs f.arity);
    env = c.env;
    dst;
    caller;
    depth = caller.depth + 1;
  }

(* a known call: the argument row is loaded left to right from the
   caller's operands straight into the callee's registers *)
let known_frame funcs fr (c : clos) (az : opnd array) ~dst ~caller =
  let callee = callee_frame funcs c ~dst ~caller in
  let f = callee.func in
  if Array.length az <> f.arity then
    internal "function %s/%d called with %d arguments" f.fname f.arity
      (Array.length az);
  for k = 0 to f.arity - 1 do
    callee.regs.(k) <- load fr az.(k)
  done;
  callee

let rec fill_args regs k a = function
  | [] -> regs.(k) <- a
  | v :: rest ->
      regs.(k) <- v;
      fill_args regs (k + 1) a rest

(* a generic application completing [c]'s arguments with [a] *)
let saturated_frame funcs (c : clos) a ~dst ~caller =
  let callee = callee_frame funcs c ~dst ~caller in
  fill_args callee.regs 0 a c.pap;
  callee

let extend (c : clos) a =
  Clos { fn = c.fn; env = c.env; pap = c.pap @ [ a ]; cmark = 0; hints = c.hints }

(* leave arena [sid]; with [--check-arenas], the walk starts from [o]
   and the roots of [fr] and its callers *)
let close_arena m fr sid o =
  H.close_arena m.heap sid ~roots:(fun visit ->
      visit (load fr o);
      iter_frames visit ~floor:0 fr)

(* One instruction of the current frame [fr] at [pc] of its [code]; the
   header's "Dispatch" paragraph says when [fr.pc] and [m.top] are
   written back. *)
let rec step m funcs fr code pc =
  tick m;
  match code.(pc) with
  | Move (d, o) ->
      fr.regs.(d) <- load fr o;
      step m funcs fr code (pc + 1)
  | Prim1 (d, p, a) ->
      let v = load fr a in
      fr.regs.(d) <-
        (match (p, v) with
        | Ast.Car, Ptr a -> (H.read m.heap "car" a).H.car
        | Ast.Cdr, Ptr a -> (H.read m.heap "cdr" a).H.cdr
        | Ast.Null, Nil -> Bool true
        | Ast.Null, Ptr _ -> Bool false
        | _ -> delta1 m p v);
      step m funcs fr code (pc + 1)
  | Prim2 (d, p, a, b) ->
      let a = load fr a in
      let b = load fr b in
      fr.regs.(d) <-
        (match (p, a, b) with
        | Ast.Add, Int x, Int y -> Int (x + y)
        | Ast.Sub, Int x, Int y -> Int (x - y)
        | Ast.Lt, Int x, Int y -> of_bool (x < y)
        | Ast.Le, Int x, Int y -> of_bool (x <= y)
        | Ast.Eq, Int x, Int y -> of_bool (x = y)
        | _ -> delta2 p a b);
      step m funcs fr code (pc + 1)
  | Alloc (d, sh, al, a, b) ->
      let a = load fr a in
      let b = load fr b in
      fr.pc <- pc + 1;
      m.top <- fr;
      fr.regs.(d) <- do_alloc m sh al a b;
      step m funcs fr code (pc + 1)
  | Node (d, al, l, x, r) ->
      let l = load fr l in
      let x = load fr x in
      let r = load fr r in
      fr.pc <- pc + 1;
      m.top <- fr;
      fr.regs.(d) <- do_node m al l x r;
      step m funcs fr code (pc + 1)
  | Dcons (d, c, hd, tl) ->
      let c = load fr c in
      let hd = load fr hd in
      fr.regs.(d) <- do_dcons m c hd (load fr tl);
      step m funcs fr code (pc + 1)
  | Dnode (d, c, l, x, r) ->
      let c = load fr c in
      let l = load fr l in
      let x = load fr x in
      fr.regs.(d) <- do_dnode m c l x (load fr r);
      step m funcs fr code (pc + 1)
  | Clo (d, fid, caps) ->
      let env = Array.make (Array.length caps) Nil in
      for k = 0 to Array.length caps - 1 do
        env.(k) <- load_raw fr caps.(k)
      done;
      fr.regs.(d) <- Clos { fn = fid; env; pap = []; cmark = 0; hints = [] };
      step m funcs fr code (pc + 1)
  | Call (d, fid, fo, az) -> (
      match load fr fo with
      | Clos ({ pap = []; _ } as c) when c.fn = fid ->
          fr.pc <- pc + 1;
          let callee = known_frame funcs fr c az ~dst:d ~caller:fr in
          note_hints m c callee;
          step m funcs callee callee.func.code 0
      | Clos _ -> internal "known call resolved to the wrong function"
      | v -> error "cannot apply a %s as a function" (type_name v))
  | Tailcall (fid, fo, az) -> (
      match load fr fo with
      | Clos ({ pap = []; _ } as c) when c.fn = fid ->
          let callee = known_frame funcs fr c az ~dst:fr.dst ~caller:fr.caller in
          note_hints m c callee;
          step m funcs callee callee.func.code 0
      | Clos _ -> internal "known call resolved to the wrong function"
      | v -> error "cannot apply a %s as a function" (type_name v))
  | Apply (d, fo, ao) -> (
      let a = load fr ao in
      match load fr fo with
      | Clos c ->
          if List.length c.pap + 1 = funcs.(c.fn).arity then begin
            fr.pc <- pc + 1;
            let callee = saturated_frame funcs c a ~dst:d ~caller:fr in
            note_hints m c callee;
            step m funcs callee callee.func.code 0
          end
          else begin
            fr.regs.(d) <- extend c a;
            step m funcs fr code (pc + 1)
          end
      | v -> error "cannot apply a %s as a function" (type_name v))
  | Tailapply (fo, ao) -> (
      let a = load fr ao in
      match load fr fo with
      | Clos c ->
          if List.length c.pap + 1 = funcs.(c.fn).arity then begin
            let callee = saturated_frame funcs c a ~dst:fr.dst ~caller:fr.caller in
            note_hints m c callee;
            step m funcs callee callee.func.code 0
          end
          else (* a partial application is a value: return it *)
            ret m funcs fr (extend c a)
      | v -> error "cannot apply a %s as a function" (type_name v))
  | Jmp t -> step m funcs fr code t
  | Jifnot (o, t) -> (
      match load fr o with
      | Bool true -> step m funcs fr code (pc + 1)
      | Bool false -> step m funcs fr code t
      | v -> not_a_bool v)
  | Ret o -> ret m funcs fr (load fr o)
  | Mkslot (d, name) ->
      fr.regs.(d) <- Slotv { sname = name; sv = None };
      step m funcs fr code (pc + 1)
  | Setslot (d, o, name) ->
      let v = load fr o in
      (match fr.regs.(d) with
      | Slotv s -> s.sv <- Some v
      | _ -> internal "Setslot on a non-slot register");
      tag_hints m funcs name v;
      step m funcs fr code (pc + 1)
  | Openarena (_, sid) ->
      H.open_arena m.heap sid;
      step m funcs fr code (pc + 1)
  | Closearena (sid, o) ->
      fr.pc <- pc + 1;
      close_arena m fr sid o;
      step m funcs fr code (pc + 1)

(* return [v] from [fr] into its caller, or end the run; the caller now
   differs from what the last collection saw, so the mark drops to it.
   [m.top] moves down too, so that it never keeps a dead chain of
   frames alive. *)
and ret m funcs fr v =
  let caller = fr.caller in
  if caller == bottom then v
  else begin
    if caller.depth < m.low && not !return_keeps_mark then m.low <- caller.depth;
    if fr == m.top then m.top <- caller;
    caller.regs.(fr.dst) <- v;
    step m funcs caller caller.func.code caller.pc
  end

let exec m (code : code) : value =
  let entry =
    {
      func = code.entry;
      pc = 0;
      regs = regfile code.entry.nregs;
      env = [||];
      dst = -1;
      caller = bottom;
      depth = 0;
    }
  in
  m.top <- entry;
  m.low <- 0;
  step m code.funcs entry entry.func.code 0

let eval m code =
  let before = Stats.snapshot m.stats in
  Fun.protect
    ~finally:(fun () -> Stats.global_add ~before ~after:m.stats)
    (fun () -> exec m code)

let run_ir m ir = eval m (compile ir)

(* ---- reading results ------------------------------------------------------ *)

let read_value m v =
  let budget = ref 1_000_000 in
  let rec go v =
    decr budget;
    if !budget <= 0 then error "read_value: structure too large or cyclic";
    match v with
    | Int n -> Nml.Eval.Vint n
    | Bool b -> Nml.Eval.Vbool b
    | Nil -> Nml.Eval.Vnil
    | Ptr a ->
        let c = H.get m.heap a in
        if c.H.free then error "read_value: dangling pointer to a freed cell";
        Nml.Eval.Vcons (go c.H.car, go c.H.cdr)
    | Pair a ->
        let c = H.get m.heap a in
        if c.H.free then error "read_value: dangling pointer to a freed cell";
        Nml.Eval.Vpair (go c.H.car, go c.H.cdr)
    | Leaf -> Nml.Eval.Vleaf
    | Tree a ->
        let c = H.get m.heap a in
        if c.H.free then error "read_value: dangling pointer to a freed cell";
        Nml.Eval.Vnode (go c.H.car, go c.H.lbl, go c.H.cdr)
    | Clos _ | Slotv _ -> error "read_value: result is a function"
  in
  go v

let cell_values m a =
  let c = H.get m.heap a in
  if c.H.free then error "cell_values: address %d is a freed cell" a;
  (c.H.car, c.H.cdr, c.H.lbl)

(* ---- disassembly ---------------------------------------------------------- *)

let pp_opnd ppf = function
  | Reg i -> Format.fprintf ppf "r%d" i
  | Envv i -> Format.fprintf ppf "e%d" i
  | Const (Int n) -> Format.pp_print_int ppf n
  | Const (Bool b) -> Format.pp_print_bool ppf b
  | Const Nil -> Format.pp_print_string ppf "nil"
  | Const Leaf -> Format.pp_print_string ppf "leaf"
  | Const v -> internal "constant operand of type %s" (type_name v)

let pp_opnds ppf az =
  Array.iteri
    (fun i o ->
      if i > 0 then Format.pp_print_char ppf ' ';
      pp_opnd ppf o)
    az

let pp_alloc ppf = function
  | Ir.Heap -> ()
  | Ir.Arena i -> Format.fprintf ppf "@@a%d" i
  | Ir.Pretenured -> Format.pp_print_string ppf "@@old"

let pp_instr ppf = function
  | Move (d, o) -> Format.fprintf ppf "r%d <- %a" d pp_opnd o
  | Prim1 (d, p, a) -> Format.fprintf ppf "r%d <- %s %a" d (Ast.prim_name p) pp_opnd a
  | Prim2 (d, p, a, b) ->
      Format.fprintf ppf "r%d <- %s %a" d (Ast.prim_name p) pp_opnds [| a; b |]
  | Alloc (d, sh, al, a, b) ->
      Format.fprintf ppf "r%d <- %s%a %a" d (Anf.shape_name sh) pp_alloc al
        pp_opnds [| a; b |]
  | Node (d, al, l, x, r) ->
      Format.fprintf ppf "r%d <- %s%a %a" d (Anf.shape_name Anf.Snode) pp_alloc al
        pp_opnds [| l; x; r |]
  | Dcons (d, c, hd, tl) ->
      Format.fprintf ppf "r%d <- %s! %a" d (Anf.reuse_name Anf.Rcons) pp_opnds
        [| c; hd; tl |]
  | Dnode (d, c, l, x, r) ->
      Format.fprintf ppf "r%d <- %s! %a" d (Anf.reuse_name Anf.Rnode) pp_opnds
        [| c; l; x; r |]
  | Clo (d, fid, az) ->
      Format.fprintf ppf "r%d <- closure f%d [%a]" d fid pp_opnds az
  | Call (d, fid, fo, az) ->
      Format.fprintf ppf "r%d <- call f%d %a (%a)" d fid pp_opnd fo pp_opnds az
  | Tailcall (fid, fo, az) ->
      Format.fprintf ppf "tailcall f%d %a (%a)" fid pp_opnd fo pp_opnds az
  | Apply (d, fo, ao) ->
      Format.fprintf ppf "r%d <- apply %a %a" d pp_opnd fo pp_opnd ao
  | Tailapply (fo, ao) ->
      Format.fprintf ppf "tailapply %a %a" pp_opnd fo pp_opnd ao
  | Jmp t -> Format.fprintf ppf "jmp %d" t
  | Jifnot (o, t) -> Format.fprintf ppf "jifnot %a %d" pp_opnd o t
  | Ret o -> Format.fprintf ppf "ret %a" pp_opnd o
  | Mkslot (d, x) -> Format.fprintf ppf "r%d <- slot %s" d x
  | Setslot (d, o, x) -> Format.fprintf ppf "r%d.%s := %a" d x pp_opnd o
  | Openarena (k, sid) ->
      Format.fprintf ppf "open %s a%d"
        (match k with Ir.Region -> "region" | Ir.Block -> "block")
        sid
  | Closearena (sid, o) -> Format.fprintf ppf "close a%d (%a)" sid pp_opnd o

let pp_func ppf f =
  if f.fid < 0 then Format.fprintf ppf "@[<v 2>entry (regs %d):" f.nregs
  else
    Format.fprintf ppf "@[<v 2>fn f%d %s/%d (env %d, regs %d):" f.fid f.fname
      f.arity f.nenv f.nregs;
  Array.iteri
    (fun i inst -> Format.fprintf ppf "@,%3d: %a" i pp_instr inst)
    f.code;
  Format.fprintf ppf "@]"

let pp_code ppf (c : code) =
  Format.fprintf ppf "@[<v 0>%a" pp_func c.entry;
  Array.iter (fun f -> Format.fprintf ppf "@,%a" pp_func f) c.funcs;
  Format.fprintf ppf "@,%a@]" Closure.pp_report c.report
