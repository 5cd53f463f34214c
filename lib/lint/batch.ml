(* The per-file lint job for [nmlc batch --lint]: an [Engine.run] under
   the pool's exception regime, producing the same rendered text that
   [nmlc lint] prints so the driver can merge reports in input order. *)

let of_source ~config ~store ~path src =
  let o = Engine.run ~config ?store ~file:path src in
  let findings = List.length o.Engine.findings in
  Cache.Batch.result ~code:(min findings 1) ~defs:o.Engine.defs ~findings
    ~evaluations:o.Engine.evaluations ~scc_hits:o.Engine.scc_hits
    ~scc_misses:o.Engine.scc_misses path
    (Nml.Diagnostic.report o.Engine.findings
       (Printf.sprintf "lint: %d finding(s), %d suppressed" findings o.Engine.suppressed))

let analyze_source ?(config = Registry.default) ~store ~path src =
  Cache.Batch.protect path (fun () -> of_source ~config ~store ~path src)

let analyze_file ?(config = Registry.default) ~store path =
  Cache.Batch.protect path (fun () -> of_source ~config ~store ~path (Nml.Front.read path))
