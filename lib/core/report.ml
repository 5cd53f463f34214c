module Ty = Nml.Ty
module Eval = Nml.Eval

(* The verdict line is printed from plain data so a summary replayed from
   the persistent cache goes through the same code path as a fresh solve
   (bit-identical output is a batch-driver invariant). *)
let pp_line ppf ~func ~arg ~esc ~spines =
  let escaping = Besc.spines esc in
  let keep = max 0 (spines - escaping) in
  Format.fprintf ppf "  G(%s, %d) = %-6s" func arg (Besc.to_string esc);
  if Besc.equal esc Besc.zero then
    Format.fprintf ppf " -- no part of argument %d ever escapes" arg
  else if spines = 0 then
    Format.fprintf ppf " -- argument %d (not a list) may escape" arg
  else if escaping = 0 then
    Format.fprintf ppf " -- no spine of argument %d escapes, only elements may" arg
  else
    Format.fprintf ppf
      " -- top %d of %d spine(s) never escape; bottom %d may escape" keep spines
      escaping

(* ---- definition summaries -------------------------------------------------- *)

type arg_summary = {
  s_arg : int;
  s_spines : int;
  s_esc : Besc.t;
  s_components : (string * Besc.t) list;
}

type def_summary = {
  s_name : string;
  s_inst : string;
  s_args : arg_summary list;
  s_sharing : (int * int) option;
}

let summarize t name =
  let inst = Fixpoint.instance_ty t name in
  let verdicts = Analysis.global_all ~inst t name in
  let args =
    List.map
      (fun (v : Analysis.verdict) ->
        (* pair-typed parameters additionally get per-component verdicts *)
        let components =
          match
            Analysis.component_paths
              (List.nth (Ty.arg_tys inst v.Analysis.arity) (v.Analysis.arg - 1))
          with
          | [ [] ] -> []
          | _ ->
              List.map
                (fun (path, (cv : Analysis.verdict)) ->
                  (Format.asprintf "%a" Analysis.pp_path path, cv.Analysis.esc))
                (Analysis.global_components ~inst t name ~arg:v.Analysis.arg)
        in
        {
          s_arg = v.Analysis.arg;
          s_spines = v.Analysis.spines;
          s_esc = v.Analysis.esc;
          s_components = components;
        })
      verdicts
  in
  let sharing =
    if verdicts = [] then None
    else
      let info = Sharing.result_unshared ~inst t name in
      if info.Sharing.result_spines > 0 then
        Some (info.Sharing.unshared_top, info.Sharing.result_spines)
      else None
  in
  { s_name = name; s_inst = Ty.to_string inst; s_args = args; s_sharing = sharing }

let pp_def_summary ppf s =
  Format.fprintf ppf "@[<v 0>%s : %s@," s.s_name s.s_inst;
  List.iter
    (fun a ->
      Format.fprintf ppf "%a@,"
        (fun ppf () -> pp_line ppf ~func:s.s_name ~arg:a.s_arg ~esc:a.s_esc ~spines:a.s_spines)
        ();
      List.iter
        (fun (path, esc) ->
          Format.fprintf ppf "    component %s = %s%s@," path (Besc.to_string esc)
            (if Besc.equal esc Besc.zero then "  (never escapes)" else ""))
        a.s_components)
    s.s_args;
  (match s.s_sharing with
  | Some (top, spines) ->
      Format.fprintf ppf
        "  sharing: top %d of the result's %d spine(s) are unshared in any call@," top
        spines
  | None -> ());
  Format.fprintf ppf "@]"

let definition ppf t name = pp_def_summary ppf (summarize t name)

let summarize_program t =
  let prog = Fixpoint.program t in
  List.map (fun (name, _) -> summarize t name) prog.Nml.Infer.schemes

let pp_program_summaries ppf summaries =
  Format.fprintf ppf "@[<v 0>";
  List.iter
    (fun s -> Format.fprintf ppf "%a@," (fun ppf () -> pp_def_summary ppf s) ())
    summaries;
  Format.fprintf ppf "@]"

let program ppf t = pp_program_summaries ppf (summarize_program t)

let call ppf t fname args =
  Format.fprintf ppf "@[<v 0>call: %s on %d argument(s)@,"  fname (List.length args);
  List.iteri
    (fun j _ ->
      let v = Analysis.local t fname args ~arg:(j + 1) in
      let keep = Analysis.non_escaping_top_spines v in
      Format.fprintf ppf "  L(%s, %d) = %-6s" fname (j + 1) (Besc.to_string v.Analysis.esc);
      if not (Analysis.escapes v) then Format.fprintf ppf " -- nothing escapes this call@,"
      else if v.Analysis.spines = 0 then Format.fprintf ppf " -- the argument may escape@,"
      else
        Format.fprintf ppf " -- top %d of %d spine(s) stay inside this call@," keep
          v.Analysis.spines)
    args;
  Format.fprintf ppf "@]"

let kleene_trace ?(max_iters = 12) ppf (prog : Nml.Infer.program) =
  let defs =
    List.map (fun (name, _) -> (name, Nml.Infer.simplest prog name)) prog.Nml.Infer.schemes
  in
  let d = List.fold_left (fun acc (_, tast) -> max acc (Nml.Tast.max_list_depth tast)) 0 defs in
  Dvalue.ensure_d d;
  (* the G-style probe application of a definition's current iterate *)
  let g_escs value tast =
    let n = Ty.params tast.Nml.Tast.ty in
    let arg_tys = Ty.arg_tys tast.Nml.Tast.ty n in
    List.mapi
      (fun i _ ->
        let ys =
          List.mapi
            (fun j ty -> if j = i then Dvalue.interesting ty else Dvalue.boring ty)
            arg_tys
        in
        (Dvalue.total_esc (Dvalue.apply_all value ys)))
      arg_tys
  in
  let pp_row ppf vals =
    List.iter
      (fun (name, escs) ->
        Format.fprintf ppf "  %s: %s" name
          (String.concat " " (List.map Besc.to_string escs)))
      vals
  in
  Format.fprintf ppf "@[<v 0>";
  let current = ref (List.map (fun (n, tast) -> (n, Dvalue.bottom tast.Nml.Tast.ty)) defs) in
  let stable = ref false in
  let k = ref 0 in
  while (not !stable) && !k <= max_iters do
    let snapshot = !current in
    let row =
      List.map (fun ((n, tast), (_, v)) -> (n, (g_escs v tast : Besc.t list)))
        (List.combine defs snapshot)
    in
    Format.fprintf ppf "iterate %d %a@," !k pp_row row;
    (* Jacobi: next iterate of every body under the snapshot *)
    let ctx =
      Espec.make_ctx ~max_iters:100 ~global:(fun x _ty ->
          match List.assoc_opt x snapshot with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "kleene_trace: unknown %s" x))
    in
    let next = List.map (fun (n, tast) -> (n, Espec.transfer ctx tast)) defs in
    stable :=
      List.for_all2 (fun (_, a) (_, b) -> Dvalue.equal a b) snapshot next;
    current := next;
    incr k
  done;
  if !stable then Format.fprintf ppf "stable after %d iterate(s)@," (!k - 1)
  else Format.fprintf ppf "(trace cut off at %d iterates)@," max_iters;
  Format.fprintf ppf "@]"

(* Figure 1: label every cons chain with its top spine index; the bottom
   index is derived from the value's total spine depth. *)
let spines_figure ppf value =
  let rec depth = function
    | Eval.Vcons (hd, tl) -> max (1 + depth hd) (depth tl)
    | _ -> 0
  in
  let total = depth value in
  let rec render ppf (v, top) =
    match v with
    | Eval.Vnil -> Format.fprintf ppf "[]"
    | Eval.Vcons _ ->
        let elems =
          let rec go = function
            | Eval.Vcons (hd, tl) -> hd :: go tl
            | _ -> []
          in
          go v
        in
        Format.fprintf ppf "@[<hov 2>(spine top=%d bottom=%d:@ %a)@]" top
          (total - top + 1)
          (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf e ->
               render ppf (e, top + 1)))
          elems
    | other -> Eval.pp_value ppf other
  in
  Format.fprintf ppf "@[<v 0>value with %d spine(s):@,%a@]" total render (value, 1)
