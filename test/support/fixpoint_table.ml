(* Analysis results on fixed sets of programs, pinned as data: one
   parser and one checker over two tables, each with its own renderer.

   [fixpoints.table] holds the escape solver's results.  It was written
   while the solver was still checked against a round-robin engine, which
   re-evaluated every demanded entry each pass, and against a frozen copy
   of the pre-framework solver: all three agreed on every verdict, and
   the pre-framework solver on every counter too.  [flags.table] holds
   the flag analyses' results (usage, spine-liveness, sharing and the
   escape x usage product), written before their abstract walk was
   merged with the escape one, so that the merge could be checked to
   change nothing.  Each section records one program:

   {v
   == <test name> [<index>]
   max_iters <n>                (only when not the default cap)
   |<source line>               (one per line of the source text)
   <body>                       (what the table's renderer prints)
   v}

   An escape body is

   {v
   G(<f>, <i>) = <escape>       (every parameter of every definition)
   evaluations <e> passes <p> d <d>
   memo <hits> hits <misses> misses <invalidated> invalidated
   sccs <n> largest <k>
   v}

   and a flag body is, for each analysis in turn, every verdict
   ([U]/[L]/[S]/[P] of every parameter of every definition) and then
   that analysis' solver counters, and last the escape solver's
   iteration count and cap flag, which the escape table does not carry:

   {v
   U(<f>, <i>) = <usage verdict>
   usage evaluations <e> iterations <n> passes <p> memo <h> hits <m> misses capped <b>
   ...
   escape iterations <n> capped <b>
   v}

   The verdicts are the global tests at each definition's simplest
   instance, in definition order, and the counters are each solver's
   after those queries; every analysis runs on a solver of its own.
   Storing the sources keeps the tables independent of the random
   program generator. *)

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

(* The counters every flag solver reports, on one line. *)
let solver_line name (s : Framework.Solver.stats) =
  Printf.sprintf "%s evaluations %d iterations %d passes %d memo %d hits %d misses capped %b\n"
    name s.stats_evaluations s.stats_iterations s.stats_passes s.stats_cache_hits
    s.stats_cache_misses s.stats_capped

(* One analysis' section of a flag body: [verdict t name i] for every
   parameter of every definition, in definition order, then [stats t]. *)
let flag_block ~make ~instance_ty ~verdict ~stats ~letter ~name prog =
  let t = make prog in
  let b = Buffer.create 256 in
  List.iter
    (fun (f, _) ->
      for i = 1 to Nml.Ty.arity (instance_ty t f) do
        Printf.bprintf b "%s(%s, %d) = %s\n" letter f i (verdict t f i)
      done)
    prog.Nml.Infer.schemes;
  Buffer.add_string b (solver_line name (stats t));
  Buffer.contents b

let render_flags ?max_iters src =
  let module U = Framework.Usage in
  let module L = Framework.Spinelive in
  let module S = Framework.Alias in
  let module P = Analyses.Product in
  let prog = Nml.Infer.infer_program (Nml.Surface.of_string src) in
  let usage =
    flag_block ~make:(U.Solver.make ?max_iters) ~instance_ty:U.Solver.instance_ty
      ~stats:U.Solver.stats ~letter:"U" ~name:U.Flags.analysis_name
      ~verdict:(fun t f arg -> U.verdict_name (U.arg_verdict t f ~arg))
      prog
  in
  let live =
    flag_block ~make:(L.Solver.make ?max_iters) ~instance_ty:L.Solver.instance_ty
      ~stats:L.Solver.stats ~letter:"L" ~name:L.Flags.analysis_name
      ~verdict:(fun t f arg -> L.verdict_name (L.arg_verdict t f ~arg))
      prog
  in
  let sharing =
    flag_block ~make:(S.Solver.make ?max_iters) ~instance_ty:S.Solver.instance_ty
      ~stats:S.Solver.stats ~letter:"S" ~name:S.Flags.analysis_name
      ~verdict:(fun t f arg -> S.verdict_name (S.arg_verdict t f ~arg))
      prog
  in
  let product =
    flag_block ~make:(P.Solver.make ?max_iters) ~instance_ty:P.Solver.instance_ty
      ~stats:P.Solver.stats ~letter:"P" ~name:P.PD.name
      ~verdict:(fun t f arg ->
        let a = P.arg_report t f ~arg in
        Printf.sprintf "%s usage %s esc %s" (P.verdict_name a.P.a_verdict)
          (U.verdict_name a.P.a_usage) (Escape.Besc.to_string a.P.a_esc))
      prog
  in
  let t = Fix.make ?max_iters prog in
  ignore (verdicts t);
  let s = Fix.stats t in
  Printf.sprintf "%s%s%s%sescape iterations %d capped %b\n" usage live sharing product
    s.Fix.stats_iterations s.Fix.stats_capped

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

type table = { file : string; render : ?max_iters:int -> string -> string }

let escape = { file = "fixpoints.table"; render }
let flags = { file = "flags.table"; render = render_flags }

(* under [dune runtest] the cwd is the test directory; under [dune exec]
   from the project root it is the root *)
let path table =
  if Sys.file_exists table.file then table.file else Filename.concat "test" table.file

let sections table = parse (In_channel.with_open_text (path table) In_channel.input_all)

(* One check per test name the table's headers carry with [prefix], in
   table order.  A check re-renders every section of its test from the
   stored source and fails on the first that differs, printing both. *)
let cases table ~prefix =
  let sections = sections table in
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
                let now = table.render ?max_iters:s.max_iters s.source in
                if not (String.equal now s.body) then
                  failwith
                    (Printf.sprintf "section %s differs\n-- table --\n%s-- now --\n%s"
                       s.header s.body now))
            sections ))
    tests
