module Ty = Nml.Ty
module Tast = Nml.Tast
module Ast = Nml.Ast
module Infer = Nml.Infer

type verdict = {
  func : string;
  arg : int;
  arity : int;
  inst : Ty.t;
  spines : int;
  esc : Besc.t;
}

let escaping_spines v = Besc.spines v.esc
let escapes v = not (Besc.equal v.esc Besc.zero)
let non_escaping_top_spines v = max 0 (v.spines - escaping_spines v)

let check_arg ~what ~arg ~arity =
  if arg < 1 || arg > arity then
    invalid_arg
      (Printf.sprintf "Analysis.%s: argument position %d out of range 1..%d" what arg arity)

let global ?inst ?arity t fname ~arg =
  let inst = match inst with Some ty -> ty | None -> Fixpoint.instance_ty t fname in
  let arity = match arity with Some n -> n | None -> Ty.params inst in
  check_arg ~what:"global" ~arg ~arity;
  Fixpoint.with_state t @@ fun () ->
  let arg_tys = Ty.arg_tys inst arity in
  let fval = Fixpoint.value t fname (Some inst) in
  let ys =
    List.mapi
      (fun j ty -> if j + 1 = arg then Dvalue.interesting ty else Dvalue.boring ty)
      arg_tys
  in
  let result = Dvalue.apply_all fval ys in
  {
    func = fname;
    arg;
    arity;
    inst;
    spines = Ty.spines (List.nth arg_tys (arg - 1));
    esc = Dvalue.total_esc result;
  }

let global_all ?inst t fname =
  let inst = match inst with Some ty -> ty | None -> Fixpoint.instance_ty t fname in
  let arity = Ty.params inst in
  List.init arity (fun j -> global ~inst t fname ~arg:(j + 1))

(* Splits an application node into head and arguments. *)
let rec split_app acc (e : Tast.texpr) =
  match e.Tast.desc with
  | Tast.App (f, a) -> split_app (a :: acc) f
  | _ -> (e, acc)

let local_call t (call : Tast.texpr) ~arg =
  let head, args = split_app [] call in
  let fname =
    match head.Tast.desc with
    | Tast.Var f -> f
    | _ -> invalid_arg "Analysis.local_call: head of the call is not a named definition"
  in
  let arity = List.length args in
  check_arg ~what:"local_call" ~arg ~arity;
  let inst = head.Tast.ty in
  Fixpoint.with_state t @@ fun () ->
  let fval = Fixpoint.value t fname (Some inst) in
  let zs =
    List.mapi
      (fun j e ->
        let v = Fixpoint.eval_expr t e in
        if j + 1 = arg then Dvalue.mark_interesting v else Dvalue.mark_boring v)
      args
  in
  let result = Dvalue.apply_all fval zs in
  let interesting = List.nth args (arg - 1) in
  {
    func = fname;
    arg;
    arity;
    inst;
    spines = Ty.spines interesting.Tast.ty;
    esc = Dvalue.total_esc result;
  }

let rec component_paths ty =
  match Ty.shape ty with
  | Ty.Sprod (a, b) ->
      List.map (fun p -> Dvalue.Cfst :: p) (component_paths a)
      @ List.map (fun p -> Dvalue.Csnd :: p) (component_paths b)
  | Ty.Sbase | Ty.Sarrow _ -> [ [] ]

let rec component_ty path ty =
  match (path, Ty.shape ty) with
  | [], _ -> ty
  | Dvalue.Cfst :: rest, Ty.Sprod (a, _) -> component_ty rest a
  | Dvalue.Csnd :: rest, Ty.Sprod (_, b) -> component_ty rest b
  | _ :: _, (Ty.Sbase | Ty.Sarrow _) ->
      invalid_arg "Analysis.component_ty: path does not name a pair component"

let global_components ?inst t fname ~arg =
  let inst = match inst with Some ty -> ty | None -> Fixpoint.instance_ty t fname in
  let arity = Ty.params inst in
  check_arg ~what:"global_components" ~arg ~arity;
  Fixpoint.with_state t @@ fun () ->
  let arg_tys = Ty.arg_tys inst arity in
  let arg_ty = List.nth arg_tys (arg - 1) in
  let fval = Fixpoint.value t fname (Some inst) in
  List.map
    (fun path ->
      let ys =
        List.mapi
          (fun j ty ->
            if j + 1 = arg then Dvalue.probe_component ~path ty else Dvalue.boring ty)
          arg_tys
      in
      let result = Dvalue.apply_all fval ys in
      ( path,
        {
          func = fname;
          arg;
          arity;
          inst;
          spines = Ty.spines (component_ty path arg_ty);
          esc = Dvalue.total_esc result;
        } ))
    (component_paths arg_ty)

let pp_path ppf path =
  if path = [] then Format.pp_print_string ppf "(whole)"
  else
    List.iter
      (fun c ->
        Format.pp_print_string ppf
          (match c with Dvalue.Cfst -> ".fst" | Dvalue.Csnd -> ".snd"))
      path

let typed_call t fname args =
  let call_ast = Ast.app (Ast.var fname) args in
  let tcall = Infer.infer_expr ~env:(Fixpoint.program t).Infer.env call_ast in
  Tast.default_ground tcall;
  tcall

let local t fname args ~arg = local_call t (typed_call t fname args) ~arg
