type texpr = { desc : desc; ty : Ty.t; loc : Loc.t }

and desc =
  | Const of Ast.const
  | Prim of Ast.prim
  | Var of string
  | App of texpr * texpr
  | Lam of string * texpr
  | If of texpr * texpr * texpr
  | Letrec of (string * texpr) list * texpr

let param_ty e =
  match (e.desc, Ty.repr e.ty) with
  | Lam _, Ty.Arrow (a, _) -> a
  | Lam _, _ -> invalid_arg "Tast.param_ty: lambda with non-arrow type"
  | _ -> invalid_arg "Tast.param_ty: not a lambda"

let car_spines e =
  match (e.desc, Ty.repr e.ty) with
  | Prim (Ast.Car | Ast.Cdr | Ast.Label | Ast.Left | Ast.Right), Ty.Arrow (arg, _) ->
      let s = Ty.spines arg in
      if s < 1 then invalid_arg "Tast.car_spines: argument type is not a list or tree"
      else s
  | Prim (Ast.Car | Ast.Cdr | Ast.Label | Ast.Left | Ast.Right), _ ->
      invalid_arg "Tast.car_spines: primitive with non-arrow type"
  | _ -> invalid_arg "Tast.car_spines: not a projection occurrence"

let rec erase e =
  match e.desc with
  | Const c -> Ast.Const (e.loc, c)
  | Prim p -> Ast.Prim (e.loc, p)
  | Var x -> Ast.Var (e.loc, x)
  | App (f, a) -> Ast.App (e.loc, erase f, erase a)
  | Lam (x, b) -> Ast.Lam (e.loc, x, erase b)
  | If (c, t, f) -> Ast.If (e.loc, erase c, erase t, erase f)
  | Letrec (bs, body) ->
      Ast.Letrec (e.loc, List.map (fun (x, b) -> (x, erase b)) bs, erase body)

let rec default_ty t =
  match Ty.repr t with
  | Ty.Int | Ty.Bool -> ()
  | Ty.Var ({ contents = Ty.Unbound _ } as r) -> r := Ty.Link Ty.Int
  | Ty.Var { contents = Ty.Link _ } -> assert false
  | Ty.List e | Ty.Tree e -> default_ty e
  | Ty.Prod (a, b) | Ty.Arrow (a, b) ->
      default_ty a;
      default_ty b

let rec default_ground e =
  default_ty e.ty;
  match e.desc with
  | Const _ | Prim _ | Var _ -> ()
  | App (f, a) ->
      default_ground f;
      default_ground a
  | Lam (_, b) -> default_ground b
  | If (c, t, f) ->
      default_ground c;
      default_ground t;
      default_ground f
  | Letrec (bs, body) ->
      List.iter (fun (_, b) -> default_ground b) bs;
      default_ground body

let rec iter_tys f e =
  f e.ty;
  match e.desc with
  | Const _ | Prim _ | Var _ -> ()
  | App (g, a) ->
      iter_tys f g;
      iter_tys f a
  | Lam (_, b) -> iter_tys f b
  | If (c, t, fa) ->
      iter_tys f c;
      iter_tys f t;
      iter_tys f fa
  | Letrec (bs, body) ->
      List.iter (fun (_, b) -> iter_tys f b) bs;
      iter_tys f body

let max_list_depth e =
  let d = ref 0 in
  iter_tys (fun ty -> d := max !d (Ty.max_list_depth ty)) e;
  !d

let free_vars e = Ast.free_vars (erase e)
let size e = Ast.size (erase e)
let pp ppf e = Pretty.pp ppf (erase e)
let pp_typed ppf e = Format.fprintf ppf "@[<hov 2>%a@ : %a@]" pp e Ty.pp e.ty
