module Ty = Nml.Ty

type info = {
  func : string;
  result_spines : int;
  arg_spines : int list;
  arg_escapes : int list;
  unshared_top : int;
}

let base_info ?inst t fname =
  let inst = match inst with Some ty -> ty | None -> Fixpoint.instance_ty t fname in
  let verdicts = Analysis.global_all ~inst t fname in
  let arity = List.length verdicts in
  let result_spines = Ty.spines (Ty.result_ty inst arity) in
  let arg_spines = List.map (fun v -> v.Analysis.spines) verdicts in
  let arg_escapes = List.map Analysis.escaping_spines verdicts in
  (inst, { func = fname; result_spines; arg_spines; arg_escapes; unshared_top = 0 })

let result_unshared ?inst t fname =
  let _, info = base_info ?inst t fname in
  let worst = List.fold_left max 0 info.arg_escapes in
  { info with unshared_top = max 0 (info.result_spines - worst) }

let result_unshared_given ?inst t fname ~args_unshared =
  let _, info = base_info ?inst t fname in
  if List.length args_unshared <> List.length info.arg_spines then
    invalid_arg "Sharing.result_unshared_given: one unshared count per parameter expected";
  let shared_escaping =
    List.map2
      (fun (esc, d) u -> min esc (max 0 (d - u)))
      (List.combine info.arg_escapes info.arg_spines)
      args_unshared
  in
  let worst = List.fold_left max 0 shared_escaping in
  { info with unshared_top = max 0 (info.result_spines - worst) }

let call_fresh_depth t fname ~args_unshared =
  match
    let inst = Fixpoint.instance_ty t fname in
    if Ty.params inst <> List.length args_unshared then 0
    else (result_unshared_given t fname ~args_unshared).unshared_top
  with
  | d -> d
  | exception (Nml.Infer.Error _ | Invalid_argument _ | Not_found) -> 0

let argument_unshared_after ?inst t fname ~arg ~args_unshared =
  let _, info = base_info ?inst t fname in
  if arg < 1 || arg > List.length info.arg_spines then
    invalid_arg "Sharing.argument_unshared_after: argument position out of range";
  let d_i = List.nth info.arg_spines (arg - 1) in
  let esc_i = List.nth info.arg_escapes (arg - 1) in
  let u_i = List.nth args_unshared (arg - 1) in
  max 0 (min u_i (d_i - esc_i))

