(* Seeded program text for every workload.  The compiler only ever sees
   source.  The seed draws list contents, constants, library picks and
   the request order, but never the amount of work: sizes are fixed, and
   a list whose order drives the work (the partition sort's input) is a
   fixed permutation shifted by a seeded offset.  Runs with different
   seeds therefore measure the same work on different data. *)

module Ex = Nml.Examples

let int_list xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"
let draw rng n bound = List.init n (fun _ -> Random.State.int rng bound)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let upto_def = "upto n = if n < 1 then nil else cons n (upto (n - 1))"

(* ---- compile-corpus --------------------------------------------------------- *)

(* A chain of n non-recursive wrappers: one solver evaluation each. *)
let wide_chain n =
  Ex.wrap
    (List.init n (fun i ->
         if i = 0 then "w0 x = cons 0 x"
         else Printf.sprintf "w%d x = w%d (cons %d x)" i (i - 1) i))
    (Printf.sprintf "w%d [1, 2]" (n - 1))

(* A nest of k self-recursive definitions, each also calling its
   predecessor: every entry sits in a cycle. *)
let rec_nest k =
  Ex.wrap
    (List.init k (fun i ->
         if i = 0 then "f0 x y = if null x then y else cons (car x) (f0 (cdr x) y)"
         else
           Printf.sprintf
             "f%d x y = if null x then f%d y x else f%d (cdr x) (cons (car x) y)" i
             (i - 1) i))
    (Printf.sprintf "f%d [1, 2] [3]" (k - 1))

(* Library programs composing the catalogue definitions, applied to
   seeded data. *)
let libraries rng =
  let lit n = int_list (draw rng n 100) in
  let num () = Random.State.int rng 50 in
  [
    ( "lib-lists",
      Ex.wrap
        Ex.[ append_def; split_def; ps_def; rev_def; map_def; length_def; sum_def;
             filter_def ]
        (Printf.sprintf "sum (map (fun x -> x + %d) (ps (rev (filter (fun x -> x < 50) %s))))"
           (num ()) (lit 12)) );
    ( "lib-trees",
      Ex.wrap
        Ex.[ append_def; tmap_def; tinsert_def; tsum_def; mirror_def; flatten_def ]
        (Printf.sprintf
           "flatten (mirror (tmap (fun n -> n * %d) (tinsert %d (tinsert %d (tinsert %d \
            leaf)))))"
           (num ()) (num ()) (num ()) (num ())) );
    ( "lib-pairs",
      Ex.wrap
        Ex.[ zip_def; unzip_fsts_def; unzip_snds_def; assoc_def; swap_def; map_def ]
        (Printf.sprintf "assoc 0 %d (map swap (zip (snds (zip %s %s)) (fsts (zip %s %s))))"
           (num ()) (lit 6) (lit 6) (lit 6) (lit 6)) );
    ( "lib-folds",
      Ex.wrap
        Ex.[ foldr_def; compose_def; append_def; concat_def; take_def; drop_def;
             insert_def; isort_def; member_def ]
        (Printf.sprintf
           "foldr (fun a b -> if member a b then b else cons a b) nil (isort (concat (cons \
            (take 3 %s) (cons (drop 2 %s) nil))))"
           (lit 8) (lit 8)) );
  ]

(* The examples under [dir], sorted by file name. *)
let examples dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (dir ^ ": not found; run from the repository root");
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nml")
  |> List.sort compare
  |> List.map (fun f ->
         ( Filename.chop_suffix f ".nml",
           In_channel.with_open_text (Filename.concat dir f) In_channel.input_all ))

let compile_corpus ~smoke rng ~examples =
  let chains = if smoke then [ 20 ] else [ 80; 160; 320 ] in
  let nests = if smoke then [ 4 ] else [ 16; 32 ] in
  let under dir = List.map (fun (name, src) -> (dir ^ "/" ^ name, src)) in
  under "corpus" Check.Harness.builtin_corpus
  @ under "examples" examples
  @ List.map (fun n -> (Printf.sprintf "wide-chain-%d" n, wide_chain n)) chains
  @ List.map (fun k -> (Printf.sprintf "rec-nest-%d" k, rec_nest k)) nests
  @ libraries rng

(* ---- run-alloc and run-reuse ------------------------------------------------- *)

let scale ~smoke n = if smoke then max 4 (n / 50) else n

(* A fixed pseudo-random permutation of 0 .. n-1 shifted by a seeded
   offset: the sort does the same comparisons for every seed. *)
let permutation rng n =
  let offset = Random.State.int rng 1000 in
  List.map (( + ) offset) (shuffle (Random.State.make [| n |]) (List.init n Fun.id))

let run_alloc ~smoke rng =
  let n = scale ~smoke in
  let c = Random.State.int rng 9 + 1 in
  let h1 = n 20000 and h2 = n 800 in
  [
    ( "h1-stream",
      Ex.wrap
        Ex.[ create_list_def; filter_def; map_def; sum_def ]
        (Printf.sprintf "sum (map (fun x -> x + %d) (filter (fun x -> x < %d) (create_list %d)))"
           c (h1 / 2) h1) );
    ( "h2-sort",
      Ex.wrap
        Ex.[ create_list_def; filter_def; map_def; insert_def; isort_def; sum_def ]
        (Printf.sprintf
           "sum (isort (map (fun x -> x * x + %d) (filter (fun x -> x < %d) (create_list \
            %d))))"
           c (h2 / 2) h2) );
    ( "t5-map-pair",
      Ex.wrap
        Ex.[ map_def; pair_def ]
        (Printf.sprintf "map pair [%s]"
           (String.concat ", " (List.init (n 2000) (fun _ -> int_list (draw rng 2 1000))))) );
    ( "t6-ps-create",
      Ex.wrap Ex.[ append_def; split_def; ps_def; create_list_def ]
        (Printf.sprintf "ps (create_list %d)" (n 300)) );
    ( "partition-sort",
      Ex.wrap Ex.[ append_def; split_def; ps_def ] ("ps " ^ int_list (permutation rng (n 2000)))
    );
  ]

(* The witnesses build spines of 1000 cells, below the 1024-cell nursery,
   so the reuse programs never collect. *)
let run_reuse ~smoke rng =
  let n = scale ~smoke in
  let rev k = Ex.wrap Ex.[ append_def; rev_def ] ("rev " ^ int_list (draw rng (n k) 1000)) in
  let tail = int_list (draw rng 4 1000) in
  let m = n 1000 in
  let witness main = Ex.wrap [ Ex.append_def; upto_def ] main in
  [
    ("rev-1024", rev 1024);
    ("rev-256", rev 256);
    ( "branch-reuse",
      witness (Printf.sprintf "append (if 3 < 4 then upto %d else cons 1 nil) %s" m tail) );
    ( "stitch-reuse",
      witness (Printf.sprintf "append (cons %d (upto %d)) %s" (Random.State.int rng 100) m tail)
    );
    ( "letspine-reuse",
      witness (Printf.sprintf "let s = if 1 < 2 then upto %d else nil in append s %s" m tail) );
  ]

(* ---- serve-edit ----------------------------------------------------------------- *)

(* File [i] at version [v]: common and seeded library definitions plus a
   three-definition cone rooted at [sel], whose body an edit changes.
   Summary-cache keys digest normalized bodies, so a new constant in
   [sel] invalidates [sel], [use] and [top] and nothing else.  The cone
   works on lists of lists, so re-solving it takes 2.2 to 3 ms: inside
   one of the server's 2 ms reply-polling intervals, where small
   changes in solver speed do not move a reply across a poll. *)
type serve_file = { defs : string list; data : string; base : int }

let serve_files ~smoke rng =
  let pool = Ex.[ filter_def; sum_def; length_def; drop_def; member_def; foldr_def ] in
  List.init (if smoke then 4 else 24) (fun i ->
      {
        defs = List.filteri (fun j _ -> j < 3) (shuffle rng pool);
        data = "[" ^ String.concat ", " (List.init 4 (fun _ -> int_list (draw rng 2 100))) ^ "]";
        base = 1000 * (i + 1);
      })

let serve_source f ~version =
  Ex.wrap
    (Ex.[ append_def; rev_def; map_def; insert_def; take_def ]
    @ f.defs
    @ [
        Printf.sprintf "sel x = if car x < %d then insert (car x) x else take 2 x"
          (f.base + version);
        "use l = map sel l";
        "top l = use l";
      ])
    ("top " ^ f.data)
