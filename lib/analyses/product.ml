(* The reduced product escape × usage, surfaced as the registry's
   [escape-x-usage] analysis.

   The domain-level pairing is {!Framework.Product.Make} applied to the
   escape Spec and the usage Spec: one solver run settles both
   components in lockstep (same demand keys, one read frame per
   evaluation in the shared tracker {!Framework.Deps}, shared
   invalidation).  The {e reduction} happens where both components are
   in hand, per (definition, parameter):

   - usage [Unused]/[Consumed] proves the argument is never retained in
     the result, so the escape component refines to [<0,0>] even when
     the escape side over-approximated;
   - escape [<0,0>] proves no part of the argument reaches the result,
     so a usage [Carried]/[Used] verdict sheds its retention bit.

   The combined verdict is the storage story the heap layer wants:

   - [Dead]          — never inspected, never retained: garbage at call
                       entry;
   - [Scratch]       — inspected only: every cell is reclaimable the
                       moment the call returns (the DCONS / unboxing
                       license);
   - [Spine_scratch] — elements may be retained but the top
                       [reclaimable] spine levels never escape: those
                       cells can be reused per Theorem 2;
   - [Retained]      — (part of) the argument may live on in the
                       result. *)

module Usage = Framework.Usage
module Besc = Escape.Besc
module Ty = Nml.Ty

module PD = Framework.Product.Make (Escape.Espec) (Usage.D)
module Solver = Framework.Solver.Make (PD)

type verdict = Dead | Scratch | Spine_scratch | Retained

let verdicts =
  {
    Framework.Verdict.letter = "P";
    rows =
      [
        (Dead, "dead", "never inspected, never retained: dead at call entry");
        (Scratch, "scratch", "inspected only: reclaimable when the call returns");
        ( Spine_scratch,
          "spine-scratch",
          "elements may be retained; the unescaping top spines are reusable" );
        (Retained, "retained", "the argument may live on in the result");
      ];
  }

let verdict_name = Framework.Verdict.name verdicts
let verdict_of_name = Framework.Verdict.of_name verdicts

(* The mutual refinement; each direction uses one component's soundness
   to discharge the other's over-approximation. *)
let reduce ~(usage : Usage.verdict) ~(esc : Besc.t) =
  let esc =
    match usage with Usage.Unused | Usage.Consumed -> Besc.zero | _ -> esc
  in
  let usage =
    if Besc.equal esc Besc.zero then
      match usage with
      | Usage.Carried -> Usage.Unused
      | Usage.Used -> Usage.Consumed
      | v -> v
    else usage
  in
  (usage, esc)

let classify ~spines (usage, esc) =
  match usage with
  | Usage.Unused -> Dead
  | Usage.Consumed -> Scratch
  | Usage.Carried | Usage.Used ->
      if spines > 0 && Besc.spines esc < spines then Spine_scratch else Retained

type arg_report = {
  a_index : int;  (* 1-based parameter position *)
  a_usage : Usage.verdict;  (* reduced usage component *)
  a_esc : Besc.t;  (* reduced escape component *)
  a_spines : int;  (* spine count of the parameter's type *)
  a_verdict : verdict;
}

type def_report = {
  r_name : string;
  r_ty : string;  (* rendered simplest ground instance *)
  r_args : arg_report list;
}

(* Both global tests against the same product value: the escape side
   applies [interesting]/[boring] worst-case arguments to the first
   component, the usage side probes the second — then the pair is
   reduced.  Runs inside the product solver's state, which installs both
   components' ambient engines. *)
let arg_report t name ~arg =
  Solver.global_test t name ~arg @@ fun (va, vb) ty ->
  let arg_tys = Ty.arg_tys ty (Ty.params ty) in
  let esc =
    Escape.Dvalue.total_esc
      (Escape.Dvalue.apply_all va
         (List.mapi
            (fun i aty ->
              if i = arg - 1 then Escape.Dvalue.interesting aty else Escape.Dvalue.boring aty)
            arg_tys))
  in
  let usage = Usage.verdict_of_flags (Usage.D.probe_at vb ty ~arg) in
  let spines = Ty.max_list_depth (List.nth arg_tys (arg - 1)) in
  let usage, esc = reduce ~usage ~esc in
  {
    a_index = arg;
    a_usage = usage;
    a_esc = esc;
    a_spines = spines;
    a_verdict = classify ~spines (usage, esc);
  }

let report t name =
  let ty = Solver.instance_ty t name in
  let m = Ty.params ty in
  {
    r_name = name;
    r_ty = Ty.to_string ty;
    r_args = List.init m (fun i -> arg_report t name ~arg:(i + 1));
  }

let reclaimable a =
  match a.a_verdict with
  | Dead | Scratch -> a.a_spines
  | Spine_scratch -> a.a_spines - Besc.spines a.a_esc
  | Retained -> 0

let pp_def_report ppf r =
  Format.fprintf ppf "@[<v 0>%s : %s" r.r_name r.r_ty;
  List.iter
    (fun a ->
      Format.fprintf ppf "@,  %s(%s, %d) = %s  [usage %s, escape %s]  -- %s"
        verdicts.Framework.Verdict.letter r.r_name a.a_index (verdict_name a.a_verdict)
        (Usage.verdict_name a.a_usage) (Besc.to_string a.a_esc)
        (Framework.Verdict.doc verdicts a.a_verdict);
      let k = reclaimable a in
      if k > 0 && a.a_spines > 0 then
        Format.fprintf ppf " (%d of %d spine level%s reclaimable)" k a.a_spines
          (if k = 1 then "" else "s"))
    r.r_args;
  Format.fprintf ppf "@]"
