module Ir = Runtime.Ir
module Fix = Escape.Fixpoint

type options = {
  monomorphize : bool;
  reuse : bool;
  alias_reuse : bool;
  stack : bool;
  block : bool;
  pretenure : bool;
}

let all =
  {
    monomorphize = true;
    reuse = true;
    alias_reuse = true;
    stack = true;
    block = true;
    pretenure = false;
  }

let none =
  {
    monomorphize = false;
    reuse = false;
    alias_reuse = false;
    stack = false;
    block = false;
    pretenure = false;
  }

type result = {
  ir : Ir.expr;
  reuse_report : Reuse.report option;
  stack_report : Stackalloc.report option;
  block_report : Blockalloc.report option;
  pretenure_sites : int;
}

let add_defs prog extra =
  match (prog, extra) with
  | _, [] -> prog
  | Ir.Letrec (ds, m), _ -> Ir.Letrec (ds @ extra, m)
  | m, _ -> Ir.Letrec (extra, m)

let optimize_with t options (surface : Nml.Surface.t) =
  let primed, main', reuse_report =
    if options.reuse then
      let alias =
        (* the sharing solver runs over the same (monomorphized) program
           the escape solver saw; Reuse takes the max of both judgments *)
        if options.alias_reuse then Some (Framework.Alias.Solver.make (Fix.program t))
        else None
      in
      let p, m, r = Reuse.apply ?alias t surface in
      (p, m, Some r)
    else ([], surface.Nml.Surface.main, None)
  in
  let surface' = { surface with Nml.Surface.main = main' } in
  let ir, stack_report, block_report, pretenure_sites =
    if options.stack || options.block || options.pretenure then begin
      let ir, rep =
        Annotate.annotate ~stack:options.stack ~block:options.block
          ~pretenure:options.pretenure t surface'
      in
      let stack_report =
        if options.stack then Some { Stackalloc.annotations = rep.Annotate.stack } else None
      in
      let block_report =
        if options.block then Some { Blockalloc.annotations = rep.Annotate.block } else None
      in
      (ir, stack_report, block_report, rep.Annotate.pretenure_sites)
    end
    else (Ir.of_program surface', None, None, 0)
  in
  { ir = add_defs ir primed; reuse_report; stack_report; block_report; pretenure_sites }

let optimize ?(options = all) (prog : Nml.Infer.program) =
  let prog = if options.monomorphize then (Nml.Mono.monomorphize prog).Nml.Mono.typed else prog in
  optimize_with (Fix.make prog) options prog.Nml.Infer.surface

let pp_report ppf r =
  Format.fprintf ppf "@[<v 0>";
  (match r.reuse_report with
  | Some rr ->
      List.iter
        (fun c ->
          Format.fprintf ppf "reuse: %s -> %s (parameter %s, %d site(s))@ "
            c.Reuse.def c.Reuse.primed c.Reuse.param
            (List.length c.Reuse.sites + List.length c.Reuse.node_sites))
        rr.Reuse.candidates;
      Format.fprintf ppf "reuse: %d call site(s) redirected@ " rr.Reuse.substituted_calls;
      if rr.Reuse.alias_licensed > 0 then
        Format.fprintf ppf "reuse: %d site(s) licensed by the sharing analysis alone@ "
          rr.Reuse.alias_licensed
  | None -> ());
  (match r.stack_report with
  | Some sr ->
      List.iter
        (fun (a : Annotate.stack_annotation) ->
          Format.fprintf ppf
            "stack: argument %d of %s allocated in region %d (%d level(s))@ "
            a.Annotate.arg a.Annotate.func a.Annotate.arena a.Annotate.levels)
        sr.Stackalloc.annotations
  | None -> ());
  (match r.block_report with
  | Some br ->
      List.iter
        (fun (a : Annotate.block_annotation) ->
          Format.fprintf ppf "block: %s feeds %s via block %d (as %s)@ "
            a.Annotate.producer a.Annotate.consumer a.Annotate.arena
            a.Annotate.specialized)
        br.Blockalloc.annotations
  | None -> ());
  if r.pretenure_sites > 0 then
    Format.fprintf ppf "pretenure: %d cons site(s) tenured at birth@ "
      r.pretenure_sites;
  Format.fprintf ppf "@]"
