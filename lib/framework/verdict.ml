(* One verdict table per per-parameter analysis.

   Every flag analysis of this framework answers the paper's global test
   G(f, i) the same way (§4): apply the abstract value of [f] to a probe
   in position [i] and fixed arguments elsewhere, then read one verdict
   off the result.  What differs between analyses is the verdict set, so
   each analysis states it once, as (verdict, name, doc) rows plus the
   letter its reports print ([U], [L], [S], [P]).  Names, parsing, docs,
   the per-definition report and its printing all derive from that
   table. *)

type 'v t = { letter : string; rows : ('v * string * string) list }

let row tbl v = List.find (fun (v', _, _) -> v' = v) tbl.rows

let name tbl v =
  let _, n, _ = row tbl v in
  n

let doc tbl v =
  let _, _, d = row tbl v in
  d

let of_name tbl s =
  List.find_map (fun (v, n, _) -> if String.equal n s then Some v else None) tbl.rows

type 'v arg_report = { a_index : int; a_verdict : 'v }

type 'v def_report = {
  r_name : string;
  r_ty : string;  (* rendered simplest ground instance *)
  r_args : 'v arg_report list;
}

(* The report of one definition at its simplest ground instance [ty];
   [verdict i] answers G(name, i). *)
let report ~ty name verdict =
  {
    r_name = name;
    r_ty = Nml.Ty.to_string ty;
    r_args =
      List.init (Nml.Ty.arity ty) (fun i -> { a_index = i + 1; a_verdict = verdict (i + 1) });
  }

(* [trailer] prints any derived lines after the per-parameter ones. *)
let pp_def_report ?(trailer = fun _ _ -> ()) tbl ppf r =
  Format.fprintf ppf "@[<v 0>%s : %s" r.r_name r.r_ty;
  List.iter
    (fun a ->
      Format.fprintf ppf "@,  %s(%s, %d) = %s  -- %s" tbl.letter r.r_name a.a_index
        (name tbl a.a_verdict) (doc tbl a.a_verdict))
    r.r_args;
  trailer ppf r;
  Format.fprintf ppf "@]"
