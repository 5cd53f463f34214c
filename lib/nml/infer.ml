exception Error of Loc.t * string

type scheme = { vars : int list; body : Ty.t }

module Env = Map.Make (String)

type env = scheme Env.t

let empty_env = Env.empty
let bind_scheme x s env = Env.add x s env
let error loc fmt = Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt

(* ---- unification ------------------------------------------------------ *)

(* Occurs check for [id], lowering the levels of free variables of [t] to
   at most [level] so that they are not generalized too early. *)
let rec occurs_adjust loc id level t =
  match Ty.repr t with
  | Ty.Int | Ty.Bool -> ()
  | Ty.List e | Ty.Tree e -> occurs_adjust loc id level e
  | Ty.Prod (a, b) | Ty.Arrow (a, b) ->
      occurs_adjust loc id level a;
      occurs_adjust loc id level b
  | Ty.Var ({ contents = Ty.Unbound (id', level') } as r) ->
      if id = id' then error loc "this expression would have an infinite (cyclic) type"
      else if level' > level then r := Ty.Unbound (id', level)
  | Ty.Var { contents = Ty.Link _ } -> assert false

let rec unify loc t1 t2 =
  let t1 = Ty.repr t1 and t2 = Ty.repr t2 in
  match (t1, t2) with
  | Ty.Int, Ty.Int | Ty.Bool, Ty.Bool -> ()
  | Ty.List a, Ty.List b | Ty.Tree a, Ty.Tree b -> unify loc a b
  | Ty.Prod (a1, b1), Ty.Prod (a2, b2) | Ty.Arrow (a1, b1), Ty.Arrow (a2, b2) ->
      unify loc a1 a2;
      unify loc b1 b2
  | Ty.Var r1, Ty.Var r2 when r1 == r2 -> ()
  | Ty.Var ({ contents = Ty.Unbound (id, level) } as r), t
  | t, Ty.Var ({ contents = Ty.Unbound (id, level) } as r) ->
      occurs_adjust loc id level t;
      r := Ty.Link t
  | _ ->
      error loc "type mismatch: this expression has type %s but was expected of type %s"
        (Ty.to_string t2) (Ty.to_string t1)

(* ---- schemes ----------------------------------------------------------- *)

let instantiate ~level { vars; body } =
  if vars = [] then body
  else
    let table = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.add table id (Ty.fresh_var ~level)) vars;
    let rec copy t =
      match Ty.repr t with
      | Ty.Int -> Ty.Int
      | Ty.Bool -> Ty.Bool
      | Ty.List e -> Ty.List (copy e)
      | Ty.Tree e -> Ty.Tree (copy e)
      | Ty.Prod (a, b) -> Ty.Prod (copy a, copy b)
      | Ty.Arrow (a, b) -> Ty.Arrow (copy a, copy b)
      | Ty.Var { contents = Ty.Unbound (id, _) } as t -> (
          match Hashtbl.find_opt table id with Some fresh -> fresh | None -> t)
      | Ty.Var { contents = Ty.Link _ } -> assert false
    in
    copy body

let generalize ~level t =
  let vars = ref [] in
  let rec collect t =
    match Ty.repr t with
    | Ty.Int | Ty.Bool -> ()
    | Ty.List e | Ty.Tree e -> collect e
    | Ty.Prod (a, b) | Ty.Arrow (a, b) ->
        collect a;
        collect b
    | Ty.Var { contents = Ty.Unbound (id, level') } ->
        if level' > level && not (List.mem id !vars) then vars := id :: !vars
    | Ty.Var { contents = Ty.Link _ } -> assert false
  in
  collect t;
  { vars = List.rev !vars; body = t }

let mono t = { vars = []; body = t }
let scheme_ty s = instantiate ~level:1 s
let scheme_params s = Ty.params s.body

let pp_scheme ppf s =
  (* a fresh instantiation prints with canonical variable names *)
  Ty.pp ppf (instantiate ~level:1 s)

(* ---- primitive types --------------------------------------------------- *)

let prim_ty ~level (p : Ast.prim) =
  let a () = Ty.fresh_var ~level in
  match p with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
      Ty.Arrow (Ty.Int, Ty.Arrow (Ty.Int, Ty.Int))
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      Ty.Arrow (Ty.Int, Ty.Arrow (Ty.Int, Ty.Bool))
  | Ast.And | Ast.Or -> Ty.Arrow (Ty.Bool, Ty.Arrow (Ty.Bool, Ty.Bool))
  | Ast.Not -> Ty.Arrow (Ty.Bool, Ty.Bool)
  | Ast.Cons ->
      let e = a () in
      Ty.Arrow (e, Ty.Arrow (Ty.List e, Ty.List e))
  | Ast.Car ->
      let e = a () in
      Ty.Arrow (Ty.List e, e)
  | Ast.Cdr ->
      let e = a () in
      Ty.Arrow (Ty.List e, Ty.List e)
  | Ast.Null ->
      let e = a () in
      Ty.Arrow (Ty.List e, Ty.Bool)
  | Ast.Pair ->
      let x = a () in
      let y = a () in
      Ty.Arrow (x, Ty.Arrow (y, Ty.Prod (x, y)))
  | Ast.Fst ->
      let x = a () in
      let y = a () in
      Ty.Arrow (Ty.Prod (x, y), x)
  | Ast.Snd ->
      let x = a () in
      let y = a () in
      Ty.Arrow (Ty.Prod (x, y), y)
  | Ast.Node ->
      let e = a () in
      Ty.Arrow (Ty.Tree e, Ty.Arrow (e, Ty.Arrow (Ty.Tree e, Ty.Tree e)))
  | Ast.Isleaf ->
      let e = a () in
      Ty.Arrow (Ty.Tree e, Ty.Bool)
  | Ast.Label ->
      let e = a () in
      Ty.Arrow (Ty.Tree e, e)
  | Ast.Left | Ast.Right ->
      let e = a () in
      Ty.Arrow (Ty.Tree e, Ty.Tree e)

(* ---- inference --------------------------------------------------------- *)

let rec infer ~level (env : env) (e : Ast.expr) : Tast.texpr =
  match e with
  | Ast.Const (loc, c) ->
      let ty =
        match c with
        | Ast.Cint _ -> Ty.Int
        | Ast.Cbool _ -> Ty.Bool
        | Ast.Cnil -> Ty.List (Ty.fresh_var ~level)
        | Ast.Cleaf -> Ty.Tree (Ty.fresh_var ~level)
      in
      { Tast.desc = Tast.Const c; ty; loc }
  | Ast.Prim (loc, p) -> { Tast.desc = Tast.Prim p; ty = prim_ty ~level p; loc }
  | Ast.Var (loc, x) -> (
      match Env.find_opt x env with
      | Some s -> { Tast.desc = Tast.Var x; ty = instantiate ~level s; loc }
      | None -> error loc "unbound identifier %s" x)
  | Ast.App (loc, f, a) ->
      let tf = infer ~level env f in
      let ta = infer ~level env a in
      let res = Ty.fresh_var ~level in
      unify (Ast.loc f) tf.Tast.ty (Ty.Arrow (ta.Tast.ty, res));
      { Tast.desc = Tast.App (tf, ta); ty = res; loc }
  | Ast.Lam (loc, x, body) ->
      let a = Ty.fresh_var ~level in
      let tb = infer ~level (Env.add x (mono a) env) body in
      { Tast.desc = Tast.Lam (x, tb); ty = Ty.Arrow (a, tb.Tast.ty); loc }
  | Ast.If (loc, c, t, f) ->
      let tc = infer ~level env c in
      unify (Ast.loc c) tc.Tast.ty Ty.Bool;
      let tt = infer ~level env t in
      let tf = infer ~level env f in
      unify loc tt.Tast.ty tf.Tast.ty;
      { Tast.desc = Tast.If (tc, tt, tf); ty = tt.Tast.ty; loc }
  | Ast.Letrec (loc, bs, body) ->
      (* Nested letrec: monomorphic (only the top-level group of a program
         is generalized, via [infer_program]). *)
      check_distinct loc bs;
      let fresh = List.map (fun (x, _) -> (x, Ty.fresh_var ~level)) bs in
      let env' = List.fold_left (fun env (x, t) -> Env.add x (mono t) env) env fresh in
      let tbs =
        List.map2
          (fun (x, rhs) (_, t) ->
            let trhs = infer ~level env' rhs in
            unify (Ast.loc rhs) trhs.Tast.ty t;
            (x, trhs))
          bs fresh
      in
      let tbody = infer ~level env' body in
      { Tast.desc = Tast.Letrec (tbs, tbody); ty = tbody.Tast.ty; loc }

and check_distinct loc bs =
  let rec go = function
    | [] -> ()
    | (x, _) :: rest ->
        if List.exists (fun (y, _) -> String.equal x y) rest then
          error loc "duplicate definition of %s in letrec"  x
        else go rest
  in
  go bs

let infer_expr ?(env = empty_env) e = infer ~level:1 env e

type defs = Ast.expr Env.t

type instances = (string, Tast.texpr) Hashtbl.t

type program = {
  surface : Surface.t;
  schemes : (string * scheme) list;
  main : Tast.texpr;
  env : env;
  defs : defs;
  simplest : instances;
}

let infer_group ~level env (defs : (string * Ast.expr) list) =
  let fresh = List.map (fun (x, _) -> (x, Ty.fresh_var ~level)) defs in
  let env' = List.fold_left (fun env (x, t) -> Env.add x (mono t) env) env fresh in
  List.map2
    (fun (x, rhs) (_, t) ->
      let trhs = infer ~level env' rhs in
      unify (Ast.loc rhs) trhs.Tast.ty t;
      (x, trhs))
    defs fresh

let infer_program (surface : Surface.t) : program =
  check_distinct
    (match surface.Surface.defs with
    | (_, rhs) :: _ -> Ast.loc rhs
    | [] -> Loc.dummy)
    surface.Surface.defs;
  let typed = infer_group ~level:1 empty_env surface.Surface.defs in
  let schemes = List.map (fun (x, trhs) -> (x, generalize ~level:0 trhs.Tast.ty)) typed in
  let env = List.fold_left (fun env (x, s) -> Env.add x s env) empty_env schemes in
  let main = infer ~level:1 env surface.Surface.main in
  let defs = List.fold_left (fun m (x, rhs) -> Env.add x rhs m) Env.empty surface.Surface.defs in
  { surface; schemes; main; env; defs; simplest = Hashtbl.create 16 }

let def_scheme p name = Env.find name p.env
let is_def p name = Env.mem name p.env
let def_rhs p name = Env.find name p.defs

(* The program's environment with [name] rebound monomorphically: a
   recursive occurrence is typed at the instance itself. *)
let instantiate_def p name inst =
  let rhs =
    match Env.find_opt name p.defs with
    | Some rhs -> rhs
    | None -> invalid_arg (Printf.sprintf "Infer.instantiate_def: unknown definition %s" name)
  in
  let self_ty = match inst with Some t -> t | None -> Ty.fresh_var ~level:1 in
  let trhs = infer ~level:1 (Env.add name (mono self_ty) p.env) rhs in
  unify (Ast.loc rhs) trhs.Tast.ty self_ty;
  Tast.default_ground trhs;
  trhs

(* By Theorem 1 the simplest instance is a fixed fact of the program:
   each definition is typed at it once, on first use. *)
let simplest p name =
  match Hashtbl.find_opt p.simplest name with
  | Some t -> t
  | None ->
      let t = instantiate_def p name None in
      Hashtbl.add p.simplest name t;
      t

let simplest_instance p name = (simplest p name).Tast.ty

let main_ground p =
  Tast.default_ground p.main;
  p.main
