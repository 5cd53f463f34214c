module Ty = Nml.Ty
module Tast = Nml.Tast
module Ast = Nml.Ast
module Infer = Nml.Infer

exception Higher_order of string

let unsupported fmt = Format.kasprintf (fun msg -> raise (Higher_order msg)) fmt

type def = {
  name : string;
  params : string list;
  arg_tys : Ty.t list;
  body : Tast.texpr;
  table : (Besc.t list, Besc.t) Hashtbl.t;
}

type t = {
  defs : (string * def) list;
  dbound : int;
  mutable iters : int;
}

module Env = Map.Make (String)

let rec strip_lams (e : Tast.texpr) =
  match e.Tast.desc with
  | Tast.Lam (x, b) ->
      let ps, body = strip_lams b in
      (x :: ps, body)
  | _ -> ([], e)

let base_shaped ty =
  match Ty.shape ty with Ty.Sbase -> true | Ty.Sarrow _ | Ty.Sprod _ -> false

let split_app e =
  let rec go acc (e : Tast.texpr) =
    match e.Tast.desc with Tast.App (f, a) -> go (a :: acc) f | _ -> (e, acc)
  in
  go [] e

(* Evaluates a base-shaped expression to its basic escape value. *)
let rec eval t env (e : Tast.texpr) : Besc.t =
  match e.Tast.desc with
  | Tast.Const _ -> Besc.zero
  | Tast.Var x -> (
      match Env.find_opt x env with
      | Some b -> b
      | None -> unsupported "definition %s used as a value" x)
  | Tast.If (_, th, el) -> Besc.join (eval t env th) (eval t env el)
  | Tast.Letrec _ -> unsupported "nested letrec"
  | Tast.Lam _ -> unsupported "lambda outside definition or let position"
  | Tast.Prim _ -> unsupported "partially applied primitive"
  | Tast.App _ -> (
      let head, args = split_app e in
      match head.Tast.desc with
      | Tast.Prim p when List.length args = Ast.prim_arity p -> eval_prim t env head p args
      | Tast.Prim _ -> unsupported "partially applied primitive"
      | Tast.Var f -> (
          match Env.find_opt f env with
          | Some _ -> unsupported "applying a parameter (higher order)"
          | None -> (
              match List.assoc_opt f t.defs with
              | Some d when List.length args = List.length d.params ->
                  let key = List.map (eval t env) args in
                  Option.value ~default:Besc.zero (Hashtbl.find_opt d.table key)
              | Some _ -> unsupported "partial application of %s" f
              | None -> unsupported "unknown identifier %s" f))
      | Tast.Lam (x, b) -> (
          (* the let sugar, one argument at a time *)
          match args with
          | [ rhs ] -> eval t (Env.add x (eval t env rhs) env) b
          | _ -> unsupported "immediately applied lambda with several arguments")
      | _ -> unsupported "higher-order application")

and eval_prim t env (head : Tast.texpr) p args =
  match (p, args) with
  | Ast.Cons, [ x; y ] -> Besc.join (eval t env x) (eval t env y)
  | Ast.Node, [ l; x; r ] ->
      Besc.join (eval t env l) (Besc.join (eval t env x) (eval t env r))
  | Ast.Car, [ x ] | Ast.Label, [ x ] ->
      let s = Tast.car_spines head in
      Besc.sub ~s (eval t env x)
  | Ast.Cdr, [ x ] | Ast.Left, [ x ] | Ast.Right, [ x ] -> eval t env x
  | (Ast.Pair | Ast.Fst | Ast.Snd), _ -> unsupported "pair primitives are not first order"
  | ( ( Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Eq | Ast.Ne | Ast.Lt
      | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or | Ast.Not | Ast.Null | Ast.Isleaf ),
      args ) ->
      (* results of primitive operations contain nothing, but their
         arguments must still be well formed *)
      List.iter (fun a -> ignore (eval t env a)) args;
      Besc.zero
  | (Ast.Cons | Ast.Car | Ast.Cdr | Ast.Node | Ast.Label | Ast.Left | Ast.Right), _ ->
      unsupported "misapplied list or tree primitive"

let rec tuples n escs =
  if n = 0 then [ [] ]
  else
    let rest = tuples (n - 1) escs in
    List.concat_map (fun b -> List.map (fun t -> b :: t) rest) escs

let solve (prog : Infer.program) =
  let dbound = ref 0 in
  let defs =
    List.map
      (fun (name, _) ->
        let typed = Infer.simplest prog name in
        dbound := max !dbound (Tast.max_list_depth typed);
        let params, body = strip_lams typed in
        let arg_tys = Ty.arg_tys typed.Tast.ty (List.length params) in
        if not (List.for_all base_shaped arg_tys && base_shaped body.Tast.ty) then
          unsupported "%s has a non-base (function or pair) parameter or result" name;
        (name, { name; params; arg_tys; body; table = Hashtbl.create 64 }))
      prog.Infer.schemes
  in
  let t = { defs; dbound = !dbound; iters = 0 } in
  let escs = Besc.all ~d:t.dbound in
  let keys =
    List.map (fun (_, d) -> (d, tuples (List.length d.params) escs)) defs
  in
  (* initialize every entry at bottom *)
  List.iter
    (fun (d, ks) -> List.iter (fun k -> Hashtbl.replace d.table k Besc.zero) ks)
    keys;
  let changed = ref true in
  while !changed do
    changed := false;
    t.iters <- t.iters + 1;
    List.iter
      (fun (d, ks) ->
        List.iter
          (fun key ->
            let env =
              List.fold_left2 (fun env x b -> Env.add x b env) Env.empty d.params key
            in
            let v = eval t env d.body in
            let old = Hashtbl.find d.table key in
            let v' = Besc.join old v in
            if not (Besc.equal v' old) then begin
              Hashtbl.replace d.table key v';
              changed := true
            end)
          ks)
      keys
  done;
  t

let of_source src = solve (Infer.infer_program (Nml.Surface.of_string src))
let d t = t.dbound

let lookup t name key =
  match List.assoc_opt name t.defs with
  | None -> invalid_arg (Printf.sprintf "Enumerate.lookup: unknown definition %s" name)
  | Some d -> (
      match Hashtbl.find_opt d.table key with
      | Some v -> v
      | None -> invalid_arg "Enumerate.lookup: malformed key")

let global t name ~arg =
  match List.assoc_opt name t.defs with
  | None -> invalid_arg (Printf.sprintf "Enumerate.global: unknown definition %s" name)
  | Some d ->
      if arg < 1 || arg > List.length d.params then
        invalid_arg "Enumerate.global: argument position out of range";
      let key =
        List.mapi
          (fun j ty -> if j + 1 = arg then Besc.one (Ty.spines ty) else Besc.zero)
          d.arg_tys
      in
      lookup t name key

let iterations t = t.iters
let entries t = List.fold_left (fun acc (_, d) -> acc + Hashtbl.length d.table) 0 t.defs
