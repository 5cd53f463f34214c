(* The lint rule interface.

   A rule owns a stable LINT0xx code, default severity and one-line
   summary (surfaced as SARIF rule metadata), plus two checkers:

   - [check_scc] runs once per callgraph SCC and may only report
     evidence derivable from the SCC's members and their (transitive)
     callees — exactly the dependency cone the summary-cache key
     digests, so these findings can be persisted per SCC and
     invalidated with the escape summaries;
   - [check_program] runs once per program for evidence that is global
     by nature (the Theorem-1 self-audit needs the monomorphic
     instances demanded by the whole program; the main expression
     belongs to no SCC).

   Checkers emit findings at their *default* severity; per-run severity
   overrides and enable/disable filtering are applied at render time by
   {!Registry.apply}, never baked into cached records. *)

type fault = No_fault | Corrupt_invariance | Corrupt_sharing

type ctx = {
  surface : Nml.Surface.t;
  prog : Nml.Infer.program;
  solver : Escape.Fixpoint.t Lazy.t;
      (* forced only when a rule actually needs fixpoint results, so a
         fully warm cache run never evaluates an entry *)
  spinelive : Framework.Spinelive.Solver.t Lazy.t;
      (* the spine-liveness solver (the evidence of LINT004 and
         LINT007), forced only when a rule needs liveness verdicts *)
  alias : Framework.Alias.Solver.t Lazy.t;
      (* the sharing solver (LINT008's evidence), forced only when a
         rule needs sharing verdicts *)
  fault : fault;
}

type t = {
  code : string;
  title : string;  (* short kebab-case slug, e.g. "missed-reuse" *)
  summary : string;  (* one line, shown in SARIF rule metadata *)
  severity : Nml.Diagnostic.severity;  (* default severity *)
  check_scc : ctx -> members:string list -> Nml.Diagnostic.t list;
  check_program : ctx -> Nml.Diagnostic.t list;
}

let solver ctx = Lazy.force ctx.solver
let no_scc _ ~members:_ = []
let no_program _ = []
