(* Re-renders every section of test/fixpoints.table and test/flags.table
   from its stored source and rewrites both files, as [make goldens-update]
   does for the goldens.  Run it from the repository root or from test/:

     dune exec test/support/tables_update.exe *)

let () = List.iter Fixpoint_table.update [ Fixpoint_table.escape; Fixpoint_table.flags ]
