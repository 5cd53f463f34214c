module Eval = Nml.Eval
module Infer = Nml.Infer
module Ty = Nml.Ty
module Ast = Nml.Ast

type observation = {
  esc : Besc.t;
  spines : int;
  escaped_cells : int;
  total_cells : int;
  trackable : bool;
}

(* Physical identity sets over interpreter values.  Observation sizes are
   test sized, so a linear scan is fine. *)
module Pset = struct
  type t = Eval.value list ref

  let create () : t = ref []
  let mem (s : t) v = List.memq v !s
  let add (s : t) v = if not (mem s v) then s := v :: !s
end

(* The spine targets of the interesting argument: every cons cell of its
   top [i]-th spine is paired with its *bottom* index [s - i + 1]; boxed
   structure below the spines — pairs, lists inside pairs, closures —
   gets bottom index 0 (indivisible parts of the object, the paper's
   [<1,0>]).  Closures are tracked as single objects; their captured
   environments are not targets (they may share global bindings that are
   not part of the argument). *)
let collect_targets v ~spines =
  let targets = ref [] in
  let add v bottom = targets := (v, bottom) :: !targets in
  let rec element v =
    match v with
    | Eval.Vcons (hd, tl) | Eval.Vpair (hd, tl) ->
        add v 0;
        element hd;
        element tl
    | Eval.Vnode (l, x, r) ->
        add v 0;
        element l;
        element x;
        element r
    | Eval.Vclos _ | Eval.Vprim _ -> add v 0
    | Eval.Vint _ | Eval.Vbool _ | Eval.Vnil | Eval.Vleaf -> ()
  in
  let rec walk v top =
    if top > spines then element v
    else
      match v with
      | Eval.Vnil | Eval.Vleaf -> ()
      | Eval.Vcons (hd, tl) ->
          add v (spines - top + 1);
          walk hd (top + 1);
          walk tl top
      | Eval.Vnode (l, x, r) ->
          (* node cells sit at the tree's own level; children stay there,
             labels descend *)
          add v (spines - top + 1);
          walk l top;
          walk x (top + 1);
          walk r top
      | Eval.Vpair _ | Eval.Vclos _ | Eval.Vprim _ | Eval.Vint _ | Eval.Vbool _ ->
          element v
  in
  if spines = 0 then element v else walk v 1;
  !targets

(* Everything reachable from a value, looking inside list structure and
   the environments captured by closures and partial applications. *)
let reachable v =
  let seen = Pset.create () in
  let rec walk v =
    if not (Pset.mem seen v) then begin
      Pset.add seen v;
      match v with
      | Eval.Vint _ | Eval.Vbool _ | Eval.Vnil | Eval.Vleaf -> ()
      | Eval.Vcons (hd, tl) | Eval.Vpair (hd, tl) ->
          walk hd;
          walk tl
      | Eval.Vnode (l, x, r) ->
          walk l;
          walk x;
          walk r
      | Eval.Vclos (_, _, env) -> walk_env env
      | Eval.Vprim (_, args) -> List.iter walk args
    end
  and walk_env env =
    (* only the values, and only those already forced *)
    List.iter walk (Eval.env_values env)
  in
  walk v;
  seen

let observe_value_call ?fuel (p : Nml.Surface.t) ~fname ~args ~arg ~spines =
  if arg < 1 || arg > List.length args then
    invalid_arg "Exact.observe_value_call: argument position out of range";
  let env = Eval.defs_env ?fuel p in
  let vf = Eval.lookup env fname in
  let interesting = List.nth args (arg - 1) in
  let targets = collect_targets interesting ~spines in
  let total_cells = List.length targets in
  let result = Eval.apply_value ?fuel vf args in
  let reach = reachable result in
  let escaped = List.filter (fun (cell, _) -> Pset.mem reach cell) targets in
  let esc =
    match escaped with
    | [] -> Besc.zero
    | _ -> Besc.one (List.fold_left (fun acc (_, b) -> max acc b) 0 escaped)
  in
  let trackable =
    total_cells > 0
    ||
    match interesting with
    | Eval.Vint _ | Eval.Vbool _ | Eval.Vnil | Eval.Vleaf -> false
    | _ -> true
  in
  { esc; spines; escaped_cells = List.length escaped; total_cells; trackable }

let observe_call ?fuel (p : Nml.Surface.t) ~fname ~args ~arg =
  if arg < 1 || arg > List.length args then
    invalid_arg "Exact.observe_call: argument position out of range";
  (* type the interesting argument to learn its spine count *)
  let prog = Infer.infer_program p in
  let targ = Infer.infer_expr ~env:prog.Infer.env (List.nth args (arg - 1)) in
  Nml.Tast.default_ground targ;
  let spines = Ty.spines targ.Nml.Tast.ty in
  let env = Eval.defs_env ?fuel p in
  let vargs = List.map (fun a -> Eval.eval ?fuel ~env a) args in
  observe_value_call ?fuel p ~fname ~args:vargs ~arg ~spines
