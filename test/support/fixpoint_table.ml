(* The escape solver's results on a fixed set of programs, pinned as
   data.  The table was written while the solver was still checked
   against a round-robin engine, which re-evaluated every demanded entry
   each pass, and against a frozen copy of the pre-framework solver: all
   three agreed on every verdict, and the pre-framework solver on every
   counter too.  Each section records one program:

   {v
   == <test name> [<index>]
   max_iters <n>                (only when not the default cap)
   |<source line>               (one per line of the source text)
   G(<f>, <i>) = <escape>       (every parameter of every definition)
   evaluations <e> passes <p> d <d>
   memo <hits> hits <misses> misses <invalidated> invalidated
   sccs <n> largest <k>
   v}

   The verdicts are the global tests at each definition's simplest
   instance, in definition order, and the counters are the solver's
   after those queries.  Storing the sources keeps the table independent
   of the random program generator. *)

module Fix = Escape.Fixpoint
module An = Escape.Analysis

type section = {
  header : string;  (* the checking test case's name, then an index *)
  max_iters : int option;
  source : string;
  body : string;  (* everything after the source, as [render] prints it *)
}

let test_of s = List.hd (String.split_on_char ' ' s.header)

(* Every global verdict of every definition at its simplest instance, in
   definition order, each definition's value demanded first. *)
let verdicts t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, _) ->
      let inst = Fix.instance_ty t name in
      ignore (Fix.value t name (Some inst));
      List.iter
        (fun (v : An.verdict) ->
          Printf.bprintf b "G(%s, %d) = %s\n" name v.An.arg (Escape.Besc.to_string v.An.esc))
        (An.global_all ~inst t name))
    (Fix.program t).Nml.Infer.schemes;
  Buffer.contents b

let render ?max_iters src =
  let t = Fix.of_source ?max_iters src in
  let g = verdicts t in
  let s = Fix.stats t in
  Printf.sprintf
    "%sevaluations %d passes %d d %d\nmemo %d hits %d misses %d invalidated\nsccs %d largest %d\n"
    g s.Fix.stats_evaluations s.Fix.stats_passes s.Fix.stats_dbound s.Fix.stats_cache_hits
    s.Fix.stats_cache_misses s.Fix.stats_cache_invalidated s.Fix.stats_sccs
    s.Fix.stats_largest_scc

let parse text =
  let finish acc = function
    | None -> acc
    | Some (header, max_iters, src, body) ->
        {
          header;
          max_iters;
          source = String.concat "\n" (List.rev src);
          body = String.concat "" (List.rev_map (fun l -> l ^ "\n") body);
        }
        :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (finish acc cur)
    | "" :: rest -> go acc cur rest
    | l :: rest when l.[0] = '#' -> go acc cur rest
    | l :: rest when String.starts_with ~prefix:"== " l ->
        let header = String.sub l 3 (String.length l - 3) in
        go (finish acc cur) (Some (header, None, [], [])) rest
    | l :: rest -> (
        match cur with
        | None -> failwith ("Fixpoint_table.parse: text before the first section: " ^ l)
        | Some (h, m, src, body) ->
            let after k = String.sub l k (String.length l - k) in
            if l.[0] = '|' then go acc (Some (h, m, after 1 :: src, body)) rest
            else if String.starts_with ~prefix:"max_iters " l then
              go acc (Some (h, Some (int_of_string (after 10)), src, body)) rest
            else go acc (Some (h, m, src, l :: body)) rest)
  in
  go [] None (String.split_on_char '\n' text)

(* under [dune runtest] the cwd is the test directory; under [dune exec]
   from the project root it is the root *)
let path =
  if Sys.file_exists "fixpoints.table" then "fixpoints.table"
  else Filename.concat "test" "fixpoints.table"

(* One check per test name the table's headers carry with [prefix], in
   table order.  A check re-renders every section of its test from the
   stored source and fails on the first that differs, printing both. *)
let cases ~prefix =
  let sections = parse (In_channel.with_open_text path In_channel.input_all) in
  let tests =
    List.fold_left
      (fun acc s ->
        let t = test_of s in
        if String.starts_with ~prefix t && not (List.mem t acc) then t :: acc else acc)
      [] sections
  in
  List.rev_map
    (fun test ->
      ( test,
        fun () ->
          List.iter
            (fun s ->
              if test_of s = test then
                let now = render ?max_iters:s.max_iters s.source in
                if not (String.equal now s.body) then
                  failwith
                    (Printf.sprintf "section %s differs\n-- table --\n%s-- now --\n%s"
                       s.header s.body now))
            sections ))
    tests
