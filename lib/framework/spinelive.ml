(* Spine-liveness analysis, in the spirit of Karkare–Sanyal–Khedker's
   heap reference analysis for functional programs: for every
   (definition, parameter) pair, which part of the argument's {e heap
   structure} does the callee ever need?

   Three flags per structural level: [dep] (the argument may be retained
   in the result — then everything reachable stays live), [head] (the
   first cell / its element is accessed: [car], [label], or a base-datum
   observation of a derived value) and [tail] (the spine is actually
   traversed past the head: [cdr], [null], [left], [right], [isleaf]).
   The verdicts:

   - [Dead]      — never touched, never returned: the whole argument is
                   garbage the moment the call begins (LINT004 reports
                   such a parameter at its binder, LINT007 a fresh spine
                   passed to it);
   - [Head_only] — only the head cell is ever needed: every cell past
                   the first is dead on arrival (the Karkare-style
                   finding a collector can exploit by nulling the tail
                   reference, and LINT007 reports when the caller built
                   that spine fresh);
   - [Spine_live]— the spine is traversed but never retained: cells can
                   be reclaimed behind the traversal front;
   - [Live]      — may be retained in the result; nothing is reclaimable
                   without the escape analysis' finer spine counts.

   The generational heap reads [dead_spine_params] as pretenuring-style
   hints: arguments whose spine is dead need not be scavenged. *)

module Flags = struct
  let analysis_name = "spine-liveness"

  type t = { dep : bool; head : bool; tail : bool }

  let bot = { dep = false; head = false; tail = false }
  let top = { dep = true; head = true; tail = true }

  let join a b =
    { dep = a.dep || b.dep; head = a.head || b.head; tail = a.tail || b.tail }

  let equal a b = a.dep = b.dep && a.head = b.head && a.tail = b.tail

  let leq a b =
    ((not a.dep) || b.dep) && ((not a.head) || b.head) && ((not a.tail) || b.tail)

  let dep f = f.dep
  let mark_dep f = { f with dep = true }
  let detach f = { f with dep = false }

  (* observing a derived base datum is element-level evidence *)
  let observe f = { f with head = f.head || f.dep }

  (* extracting an element reads the head cell; if the element carries
     no spine structure of its own, retaining it does not retain any
     spine, so the dep bit is cleared — this is what separates
     [Head_only] (e.g. [fun l -> car l]) from [Live] *)
  let elem_view ~spined ~boxed:_ f =
    let f = { f with head = f.head || f.dep } in
    if spined then f else { f with dep = false }

  let force_tail f = { f with tail = f.tail || f.dep }
  let force_test f = { f with tail = f.tail || f.dep }

  (* projecting a pair component reads no list cell *)
  let force_proj f = f
end

module D = Flow.Make (Flags) ()
module Solver = Solver.Make (D)

type verdict = Dead | Head_only | Spine_live | Live

let verdicts =
  {
    Verdict.letter = "L";
    rows =
      [
        (Dead, "dead", "no cell of the argument is ever needed");
        (Head_only, "head-only", "only the head cell is needed; the rest of the spine is dead");
        (Spine_live, "spine-live", "the spine is traversed but never retained");
        (Live, "live", "the argument may be retained in the result");
      ];
  }

let verdict_name = Verdict.name verdicts
let verdict_of_name = Verdict.of_name verdicts

type def_report = verdict Verdict.def_report

let verdict_of_flags f =
  if f.Flags.dep then Live
  else if f.Flags.tail then Spine_live
  else if f.Flags.head then Head_only
  else Dead

let arg_verdict t name ~arg =
  Solver.global_test t name ~arg (fun v ty -> verdict_of_flags (D.probe_at v ty ~arg))

let report t name =
  Verdict.report ~ty:(Solver.instance_ty t name) name (fun arg -> arg_verdict t name ~arg)

let pp_def_report = Verdict.pp_def_report verdicts

(* Liveness hints for the generational heap: parameters whose spine
   past the head is provably dead inside the callee.
   Returns (definition, 1-based parameter indices) pairs; only
   list-typed parameters are reported (a dead int parameter is nothing
   the collector can use). *)
let dead_spine_params t =
  let prog = Solver.program t in
  List.filter_map
    (fun (name, _scheme) ->
      let ty = Solver.instance_ty t name in
      let m = Nml.Ty.params ty in
      let is_list ty = match Nml.Ty.repr ty with Nml.Ty.List _ -> true | _ -> false in
      let idxs =
        Nml.Ty.arg_tys ty m
        |> List.mapi (fun i aty -> (i + 1, aty))
        |> List.filter_map (fun (i, aty) ->
               if is_list aty then
                 match arg_verdict t name ~arg:i with
                 | Dead | Head_only -> Some i
                 | Spine_live | Live -> None
               else None)
      in
      if idxs = [] then None else Some (name, idxs))
    prog.Nml.Infer.schemes
