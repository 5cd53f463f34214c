(* Usage / strictness analysis: for every (definition, parameter) pair,
   may the parameter's value be {e retained} in the result (the [dep]
   bit survives to the result), and is it {e inspected} while computing
   it (the [use] bit)?  The four-point verdict lattice

       unused ⊏ {carried, consumed} ⊏ used

   reads off both bits: [Carried] is a lazy pass-through (retained,
   never looked at), [Consumed] a strict consumer (inspected, never
   retained — after the call the argument is garbage unless the caller
   holds it), [Used] both, [Unused] neither.  [Consumed]-style facts are
   what the reduced product with the escape analysis turns into
   reclaim-after-call verdicts (see [Analyses.Product]). *)

module Flags = struct
  let analysis_name = "usage"

  type t = { dep : bool; use : bool }

  let bot = { dep = false; use = false }
  let top = { dep = true; use = true }
  let join a b = { dep = a.dep || b.dep; use = a.use || b.use }
  let equal a b = a.dep = b.dep && a.use = b.use
  let leq a b = ((not a.dep) || b.dep) && ((not a.use) || b.use)
  let dep f = f.dep
  let mark_dep f = { f with dep = true }
  let detach f = { f with dep = false }

  (* every way of touching the argument is a use; usage tracks retention
     of any part of the argument, so the dep bit always survives *)
  let observe f = { f with use = f.use || f.dep }
  let elem_view ~spined:_ ~boxed:_ = observe
  let force_tail = observe
  let force_test = observe
  let force_proj = observe
end

module D = Flow.Make (Flags) ()
module Solver = Solver.Make (D)

type verdict = Unused | Carried | Consumed | Used

let verdicts =
  {
    Verdict.letter = "U";
    rows =
      [
        (Unused, "unused", "never inspected, never retained");
        (Carried, "carried", "retained in the result but never inspected");
        (Consumed, "consumed", "inspected but never retained in the result");
        (Used, "used", "inspected and may be retained in the result");
      ];
  }

let verdict_name = Verdict.name verdicts
let verdict_of_name = Verdict.of_name verdicts

type def_report = verdict Verdict.def_report

let verdict_of_flags f =
  match (Flags.dep f, f.Flags.use) with
  | false, false -> Unused
  | true, false -> Carried
  | false, true -> Consumed
  | true, true -> Used

(* The global-test harness: mark parameter [arg] interesting, every
   other parameter boring, apply, read the flags off the result. *)
let arg_verdict t name ~arg =
  Solver.global_test t name ~arg (fun v ty -> verdict_of_flags (D.probe_at v ty ~arg))

let report t name =
  Verdict.report ~ty:(Solver.instance_ty t name) name (fun arg -> arg_verdict t name ~arg)

let pp_def_report = Verdict.pp_def_report verdicts
