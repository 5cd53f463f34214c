type value =
  | Vint of int
  | Vbool of bool
  | Vnil
  | Vcons of value * value
  | Vpair of value * value
  | Vleaf
  | Vnode of value * value * value  (** left, label, right *)
  | Vclos of string * code * env
  | Vprim of Ast.prim * value list

(* A run-time environment is a chain of frames, innermost first.  An
   application pushes one [Arg] frame holding its argument; a [letrec]
   pushes one [Rec] frame holding its group's slots in source order, of
   which the first [filled] have been evaluated.  Closures capture the
   chain itself, so a slot filled later is seen by every closure made
   while its group was being evaluated. *)
and env =
  | Top
  | Arg of { name : string; arg : value; up : env }
  | Rec of group

and group = { names : string array; slots : value array; mutable filled : int; up : env }

(* Resolved code.  A variable is a frame address: how many frames up, and
   the slot within a [Rec] frame.  A saturated unary or binary primitive
   application is one node, ticking as the nested applications it
   replaces did. *)
and code =
  | Lit of value
  | Prim0 of Ast.prim
  | Arg_at of int
  | Slot_at of int * int
  | Unbound of string
  | Lam of string * code
  | App of code * code
  | If of code * code * code
  | Letrec of string array * code array * code
  | Prim1 of Ast.prim * code
  | Prim2 of Ast.prim * code * code

exception Runtime_error of string
exception Out_of_fuel

let error fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt
let empty_env = Top
let bind name arg up = Arg { name; arg; up }

let pending name = error "letrec binding %s is used before its definition is evaluated" name

(* The binding of [x] in a [Rec] frame is its last slot of that name, as a
   later definition of a repeated name shadows an earlier one. *)
let rec rec_index names x i =
  if i < 0 then -1 else if String.equal names.(i) x then i else rec_index names x (i - 1)

let rec lookup env x =
  match env with
  | Top -> error "unbound identifier %s at run time" x
  | Arg f -> if String.equal f.name x then f.arg else lookup f.up x
  | Rec f ->
      let i = rec_index f.names x (Array.length f.names - 1) in
      if i < 0 then lookup f.up x else if i < f.filled then f.slots.(i) else pending x

let letrec_frame names filled up =
  let slots = Array.make (Array.length names) Vnil in
  List.iteri (fun i v -> slots.(i) <- v) filled;
  Rec { names; slots; filled = List.length filled; up }

let env_values env =
  let seen = Hashtbl.create 16 in
  let visible x = (not (Hashtbl.mem seen x)) && (Hashtbl.add seen x (); true) in
  let rec go acc = function
    | Top -> acc
    | Arg f -> go (if visible f.name then f.arg :: acc else acc) f.up
    | Rec f ->
        let acc = ref acc in
        for i = Array.length f.names - 1 downto 0 do
          if visible f.names.(i) && i < f.filled then acc := f.slots.(i) :: !acc
        done;
        go !acc f.up
  in
  go [] env

let type_name = function
  | Vint _ -> "int"
  | Vbool _ -> "bool"
  | Vnil | Vcons _ -> "list"
  | Vpair _ -> "pair"
  | Vleaf | Vnode _ -> "tree"
  | Vclos _ | Vprim _ -> "function"

let as_int = function Vint n -> n | v -> error "expected an int, got a %s" (type_name v)
let as_bool = function Vbool b -> b | v -> error "expected a bool, got a %s" (type_name v)
let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

let arity_error p n = error "primitive %s applied to %d arguments" (Ast.prim_name p) n

let delta1 p a =
  match (p, a) with
  | Ast.Not, a -> vbool (not (as_bool a))
  | Ast.Car, Vcons (hd, _) -> hd
  | Ast.Car, Vnil -> error "car of nil"
  | Ast.Car, v -> error "car of a %s" (type_name v)
  | Ast.Cdr, Vcons (_, tl) -> tl
  | Ast.Cdr, Vnil -> error "cdr of nil"
  | Ast.Cdr, v -> error "cdr of a %s" (type_name v)
  | Ast.Null, Vnil -> vtrue
  | Ast.Null, Vcons _ -> vfalse
  | Ast.Null, v -> error "null of a %s" (type_name v)
  | Ast.Fst, Vpair (a, _) -> a
  | Ast.Fst, v -> error "fst of a %s" (type_name v)
  | Ast.Snd, Vpair (_, b) -> b
  | Ast.Snd, v -> error "snd of a %s" (type_name v)
  | Ast.Isleaf, Vleaf -> vtrue
  | Ast.Isleaf, Vnode _ -> vfalse
  | Ast.Isleaf, v -> error "isleaf of a %s" (type_name v)
  | Ast.Label, Vnode (_, x, _) -> x
  | Ast.Label, Vleaf -> error "label of leaf"
  | Ast.Label, v -> error "label of a %s" (type_name v)
  | Ast.Left, Vnode (l, _, _) -> l
  | Ast.Left, Vleaf -> error "left of leaf"
  | Ast.Left, v -> error "left of a %s" (type_name v)
  | Ast.Right, Vnode (_, _, r) -> r
  | Ast.Right, Vleaf -> error "right of leaf"
  | Ast.Right, v -> error "right of a %s" (type_name v)
  | _ -> arity_error p 1

let delta2 p a b =
  match p with
  | Ast.Add -> Vint (as_int a + as_int b)
  | Ast.Sub -> Vint (as_int a - as_int b)
  | Ast.Mul -> Vint (as_int a * as_int b)
  | Ast.Div ->
      let d = as_int b in
      if d = 0 then error "division by zero" else Vint (as_int a / d)
  | Ast.Mod ->
      let d = as_int b in
      if d = 0 then error "modulo by zero" else Vint (as_int a mod d)
  | Ast.Eq -> vbool (as_int a = as_int b)
  | Ast.Ne -> vbool (as_int a <> as_int b)
  | Ast.Lt -> vbool (as_int a < as_int b)
  | Ast.Le -> vbool (as_int a <= as_int b)
  | Ast.Gt -> vbool (as_int a > as_int b)
  | Ast.Ge -> vbool (as_int a >= as_int b)
  | Ast.And -> vbool (as_bool a && as_bool b)
  | Ast.Or -> vbool (as_bool a || as_bool b)
  | Ast.Cons -> (
      match b with
      | Vnil | Vcons _ -> Vcons (a, b)
      | v -> error "cons: tail must be a list, got a %s" (type_name v))
  | Ast.Pair -> Vpair (a, b)
  | _ -> arity_error p 2

let delta p args =
  match args with
  | [ a ] -> delta1 p a
  | [ a; b ] -> delta2 p a b
  | [ l; x; r ] when p = Ast.Node -> (
      match (l, r) with
      | (Vleaf | Vnode _), (Vleaf | Vnode _) -> Vnode (l, x, r)
      | _ -> error "node: children must be trees")
  | _ -> arity_error p (List.length args)

(* --- resolution ---------------------------------------------------------- *)

(* A static scope maps every visible name to the level of the frame that
   binds it (the outermost frame is level 0) and its slot there, -1 for an
   [Arg] frame; [depth] is the number of frames. *)
module Scope = Map.Make (String)

type scope = { bound : (int * int) Scope.t; depth : int }

let top_scope = { bound = Scope.empty; depth = 0 }
let push_arg s x = { bound = Scope.add x (s.depth, -1) s.bound; depth = s.depth + 1 }

let push_rec s names =
  let acc = ref s.bound in
  Array.iteri (fun i x -> acc := Scope.add x (s.depth, i) !acc) names;
  { bound = !acc; depth = s.depth + 1 }

let rec scope_of_env = function
  | Top -> top_scope
  | Arg f -> push_arg (scope_of_env f.up) f.name
  | Rec g -> push_rec (scope_of_env g.up) g.names

let rec resolve s expr =
  match expr with
  | Ast.Const (_, Ast.Cint n) -> Lit (Vint n)
  | Ast.Const (_, Ast.Cbool b) -> Lit (vbool b)
  | Ast.Const (_, Ast.Cnil) -> Lit Vnil
  | Ast.Const (_, Ast.Cleaf) -> Lit Vleaf
  | Ast.Prim (_, p) -> Prim0 p
  | Ast.Var (_, x) -> (
      match Scope.find_opt x s.bound with
      | None -> Unbound x
      | Some (level, -1) -> Arg_at (s.depth - 1 - level)
      | Some (level, i) -> Slot_at (s.depth - 1 - level, i))
  | Ast.Lam (_, x, body) -> Lam (x, resolve (push_arg s x) body)
  | Ast.App (_, Ast.Prim (_, p), a) when Ast.prim_arity p = 1 -> Prim1 (p, resolve s a)
  | Ast.App (_, Ast.App (_, Ast.Prim (_, p), a), b) when Ast.prim_arity p = 2 ->
      Prim2 (p, resolve s a, resolve s b)
  | Ast.App (_, f, a) -> App (resolve s f, resolve s a)
  | Ast.If (_, c, t, f) -> If (resolve s c, resolve s t, resolve s f)
  | Ast.Letrec (_, bs, body) ->
      let names = Array.of_list (List.map fst bs) in
      let s' = push_rec s names in
      Letrec (names, Array.of_list (List.map (fun (_, rhs) -> resolve s' rhs) bs), resolve s' body)

(* --- evaluation ---------------------------------------------------------- *)

(* Remaining steps; [max_int] when unbounded. *)
type fuel = { mutable left : int }

let fuel_of = function Some n when n >= 0 -> { left = n } | _ -> { left = max_int }

let tick st =
  if st.left = 0 then raise Out_of_fuel;
  st.left <- st.left - 1

(* [ticks st n] spends [n] steps at once, failing exactly when [n]
   successive [tick]s would. *)
let ticks st n =
  if st.left < n then raise Out_of_fuel;
  st.left <- st.left - n

let rec frame env d =
  if d = 0 then env
  else match env with Arg f -> frame f.up (d - 1) | Rec f -> frame f.up (d - 1) | Top -> env

let rec exec st env c =
  tick st;
  match c with
  | Lit v -> v
  | Prim0 p -> Vprim (p, [])
  | Arg_at d -> ( match frame env d with Arg f -> f.arg | _ -> assert false)
  | Slot_at (d, i) -> (
      match frame env d with
      | Rec f -> if i < f.filled then Array.unsafe_get f.slots i else pending f.names.(i)
      | _ -> assert false)
  | Unbound x -> error "unbound identifier %s at run time" x
  | Lam (x, body) -> Vclos (x, body, env)
  | App (f, a) ->
      (* left-to-right: function first, then argument *)
      let vf = exec st env f in
      let va = exec st env a in
      apply st vf va
  | If (c, t, f) -> if as_bool (exec st env c) then exec st env t else exec st env f
  | Letrec (names, rhss, body) ->
      let n = Array.length names in
      let fr = { names; slots = Array.make n Vnil; filled = 0; up = env } in
      let env' = Rec fr in
      for i = 0 to n - 1 do
        fr.slots.(i) <- exec st env' rhss.(i);
        fr.filled <- i + 1
      done;
      exec st env' body
  | Prim1 (p, a) ->
      (* as [App (Prim p, a)]: the primitive, [a], then the application *)
      tick st;
      let va = exec st env a in
      tick st;
      delta1 p va
  | Prim2 (p, a, b) ->
      (* as [App (App (Prim p, a), b)] *)
      ticks st 2;
      let va = exec st env a in
      tick st;
      let vb = exec st env b in
      tick st;
      delta2 p va vb

and apply st vf va =
  tick st;
  match vf with
  | Vclos (x, body, cenv) -> exec st (Arg { name = x; arg = va; up = cenv }) body
  | Vprim (p, collected) -> apply_prim p collected va
  | v -> error "cannot apply a %s as a function" (type_name v)

and apply_prim p collected va =
  let args = collected @ [ va ] in
  if List.length args = Ast.prim_arity p then delta p args else Vprim (p, args)

let eval ?fuel ?(env = empty_env) expr = exec (fuel_of fuel) env (resolve (scope_of_env env) expr)
let run ?fuel (p : Surface.t) = eval ?fuel (Surface.to_expr p)

let defs_env ?fuel (p : Surface.t) =
  match p.Surface.defs with
  | [] -> empty_env
  | defs ->
      let names = Array.of_list (List.map fst defs) in
      let s = push_rec top_scope names in
      let fr = { names; slots = Array.make (Array.length names) Vnil; filled = 0; up = Top } in
      let env = Rec fr in
      (* each definition runs on its own budget *)
      List.iteri
        (fun i (_, rhs) ->
          fr.slots.(i) <- exec (fuel_of fuel) env (resolve s rhs);
          fr.filled <- i + 1)
        defs;
      env

let apply_value ?fuel vf args =
  let apply1 vf va =
    match vf with
    | Vclos (x, body, cenv) -> exec (fuel_of fuel) (bind x va cenv) body
    | Vprim (p, collected) -> apply_prim p collected va
    | v -> error "cannot apply a %s as a function" (type_name v)
  in
  List.fold_left apply1 vf args

let value_of_int_list xs = List.fold_right (fun n acc -> Vcons (Vint n, acc)) xs Vnil

let rec list_of_value = function
  | Vnil -> []
  | Vcons (hd, tl) -> hd :: list_of_value tl
  | v -> error "expected a list, got a %s" (type_name v)

let int_list_of_value v = List.map as_int (list_of_value v)

let rec equal_value a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vnil, Vnil -> true
  | Vcons (h1, t1), Vcons (h2, t2) | Vpair (h1, t1), Vpair (h2, t2) ->
      equal_value h1 h2 && equal_value t1 t2
  | Vleaf, Vleaf -> true
  | Vnode (l1, x1, r1), Vnode (l2, x2, r2) ->
      equal_value l1 l2 && equal_value x1 x2 && equal_value r1 r2
  | (Vclos _ | Vprim _), _ | _, (Vclos _ | Vprim _) -> false
  | (Vint _ | Vbool _ | Vnil | Vcons _ | Vpair _ | Vleaf | Vnode _), _ -> false

let rec pp_value ppf = function
  | Vint n -> Format.pp_print_int ppf n
  | Vbool b -> Format.pp_print_bool ppf b
  | Vnil -> Format.pp_print_string ppf "[]"
  | Vcons _ as v ->
      let elems = list_of_value v in
      Format.fprintf ppf "@[<hov 1>[%a]@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_value)
        elems
  | Vpair (a, b) -> Format.fprintf ppf "@[<hov 1>(%a,@ %a)@]" pp_value a pp_value b
  | Vleaf -> Format.pp_print_string ppf "leaf"
  | Vnode (l, x, r) ->
      Format.fprintf ppf "@[<hov 1>(node %a %a %a)@]" pp_value l pp_value x pp_value r
  | Vclos (x, _, _) -> Format.fprintf ppf "<fun %s>" x
  | Vprim (p, args) -> Format.fprintf ppf "<prim %s/%d>" (Ast.prim_name p) (List.length args)
