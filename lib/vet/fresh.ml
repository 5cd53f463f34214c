module A = Nml.Ast
module Ir = Runtime.Ir
module Fix = Escape.Fixpoint
module Sh = Escape.Sharing
module Ty = Nml.Ty

(* saturating "infinite" freshness, safe under [1 + _] *)
let inf = max_int / 2
let succ_sat d = if d >= inf then inf else d + 1
let pred_sat d = if d >= inf then inf else max 0 (d - 1)

let head_and_args e =
  let rec go acc = function Ir.App (f, a) -> go (a :: acc) f | h -> (h, acc) in
  go [] e

let depth ?share t ~defs env e =
  let rec go env e =
    match e with
    | Ir.Const (A.Cnil | A.Cleaf) -> inf
    | Ir.Const _ -> 0
    | Ir.Var v -> ( match List.assoc_opt v env with Some d -> d | None -> 0)
    | Ir.If (_, th, el) -> min (go env th) (go env el)
    | Ir.WithArena (_, _, b) -> go env b
    | _ -> (
        match head_and_args e with
        (* a cons cell just built is fresh at level 1; deeper levels are
           as fresh as the head, the tail extends the same spine *)
        | (Ir.Prim A.Cons | Ir.ConsAt _), [ h; tl ] ->
            min (go env tl) (succ_sat (go env h))
        | Ir.Dcons, [ _src; h; tl ] -> min (go env tl) (succ_sat (go env h))
        | (Ir.Prim A.Node | Ir.NodeAt _), [ l; x; r ] ->
            min (min (go env l) (go env r)) (succ_sat (go env x))
        | Ir.Dnode, [ _src; l; x; r ] ->
            min (min (go env l) (go env r)) (succ_sat (go env x))
        | Ir.Prim (A.Car | A.Label), [ e' ] -> pred_sat (go env e')
        | Ir.Prim (A.Cdr | A.Left | A.Right), [ e' ] -> go env e'
        | Ir.Var h, (_ :: _ as args) -> (
            let g = Erase.base ~defs h in
            if not (List.mem g defs) then 0
            else
              match
                let inst = Fix.instance_ty t g in
                let m = List.length args in
                if Ty.params inst <> m then 0
                else
                  let u = List.map (go env) args in
                  let t2 =
                    (Sh.result_unshared_given t g ~args_unshared:u).Sh.unshared_top
                  in
                  (* the verifier's own interprocedural sharing
                     summaries re-derive the alias-licensed clause the
                     per-level Theorem-2 arithmetic cannot: both are
                     lower bounds, so take the max *)
                  match share with
                  | None -> t2
                  | Some s ->
                      max t2
                        (Share.call_unshared s ~def:g
                           ~arg_spines:(List.map Ty.spines (Ty.arg_tys inst m))
                           ~result_spines:(Ty.spines (Ty.result_ty inst m))
                           ~args_fresh:u)
              with
              | d -> d
              | exception (Nml.Infer.Error _ | Invalid_argument _ | Not_found | Failure _)
                -> 0)
        | _ -> 0)
  in
  go env e
