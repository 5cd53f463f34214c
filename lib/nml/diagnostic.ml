type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;
  loc : Loc.t;
  message : string;
  notes : (Loc.t * string) list;
}

let make severity ?(notes = []) ~code loc message =
  { severity; code; loc; message; notes }

let error ?notes ~code loc message = make Error ?notes ~code loc message
let warning ?notes ~code loc message = make Warning ?notes ~code loc message

let errorf ?notes ~code loc fmt =
  Format.kasprintf (fun message -> error ?notes ~code loc message) fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Note -> "note"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "note" -> Some Note
  | _ -> None

let compare a b =
  let pos d = (d.loc.Loc.file, d.loc.Loc.start_pos.Loc.line, d.loc.Loc.start_pos.Loc.col) in
  match Stdlib.compare (pos a) (pos b) with
  | 0 -> Stdlib.compare (a.code, a.message) (b.code, b.message)
  | c -> c

let pp ppf d =
  Format.fprintf ppf "%a: %s[%s]: %s" Loc.pp d.loc (severity_name d.severity) d.code
    d.message;
  List.iter
    (fun (loc, note) ->
      Format.fprintf ppf "@.  note: %a: %s" Loc.pp loc note)
    d.notes

let pos_json p = Json.Obj [ ("line", Json.int p.Loc.line); ("col", Json.int p.Loc.col) ]

let loc_json (loc : Loc.t) =
  Json.Obj
    [
      ("file", Json.Str loc.Loc.file);
      ("start", pos_json loc.Loc.start_pos);
      ("end", pos_json loc.Loc.end_pos);
    ]

let to_json d =
  Json.Obj
    [
      ("severity", Json.Str (severity_name d.severity));
      ("code", Json.Str d.code);
      ("loc", loc_json d.loc);
      ("message", Json.Str d.message);
      ( "notes",
        Json.Arr
          (List.map
             (fun (loc, note) ->
               Json.Obj [ ("loc", loc_json loc); ("message", Json.Str note) ])
             d.notes) );
    ]

(* Inverse of {!to_json}; [None] on any shape mismatch, so persisted
   diagnostics (the lint findings cache) can be replayed byte-identically
   or treated as a miss. *)
let of_json j =
  let ( let* ) = Option.bind in
  let str = function Json.Str s -> Some s | _ -> None in
  let num = function Json.Num f -> Some (int_of_float f) | _ -> None in
  let pos j =
    let* line = Option.bind (Json.member "line" j) num in
    let* col = Option.bind (Json.member "col" j) num in
    Some { Loc.line; col }
  in
  let loc j =
    let* file = Option.bind (Json.member "file" j) str in
    let* start_pos = Option.bind (Json.member "start" j) pos in
    let* end_pos = Option.bind (Json.member "end" j) pos in
    Some (Loc.make ~file ~start_pos ~end_pos)
  in
  let* severity =
    Option.bind (Option.bind (Json.member "severity" j) str) severity_of_name
  in
  let* code = Option.bind (Json.member "code" j) str in
  let* dloc = Option.bind (Json.member "loc" j) loc in
  let* message = Option.bind (Json.member "message" j) str in
  let* notes =
    match Json.member "notes" j with
    | Some (Json.Arr ns) ->
        List.fold_right
          (fun n acc ->
            let* acc = acc in
            let* nloc = Option.bind (Json.member "loc" n) loc in
            let* msg = Option.bind (Json.member "message" n) str in
            Some ((nloc, msg) :: acc))
          ns (Some [])
    | _ -> None
  in
  Some { severity; code; loc = dloc; message; notes }

(* ---- SARIF 2.1.0 ----------------------------------------------------------- *)

(* The minimal static-analysis interchange document: one run, one tool
   driver, one result per diagnostic.  Severities map one-to-one onto
   SARIF levels; secondary notes become relatedLocations.  Locations are
   1-based with an exclusive end column, exactly like {!Loc.t}. *)
let sarif_level = severity_name

let sarif_region (loc : Loc.t) =
  Json.Obj
    [
      ("startLine", Json.int loc.Loc.start_pos.Loc.line);
      ("startColumn", Json.int loc.Loc.start_pos.Loc.col);
      ("endLine", Json.int loc.Loc.end_pos.Loc.line);
      ("endColumn", Json.int loc.Loc.end_pos.Loc.col);
    ]

let sarif_location ?message loc =
  Json.Obj
    ((match message with
     | None -> []
     | Some m -> [ ("message", Json.Obj [ ("text", Json.Str m) ]) ])
    @ [
        ( "physicalLocation",
          Json.Obj
            [
              ("artifactLocation", Json.Obj [ ("uri", Json.Str loc.Loc.file) ]);
              ("region", sarif_region loc);
            ] );
      ])

let to_sarif ?(tool_name = "nmlc") ?(tool_version = "1.0.0") ?(rules = []) ds =
  let ds = List.sort compare ds in
  let result d =
    Json.Obj
      ([
         ("ruleId", Json.Str d.code);
         ("level", Json.Str (sarif_level d.severity));
         ("message", Json.Obj [ ("text", Json.Str d.message) ]);
         ("locations", Json.Arr [ sarif_location d.loc ]);
       ]
      @
      match d.notes with
      | [] -> []
      | notes ->
          [
            ( "relatedLocations",
              Json.Arr (List.map (fun (l, m) -> sarif_location ~message:m l) notes) );
          ])
  in
  let rules =
    (* explicit registry metadata when given, else the distinct codes *)
    if rules <> [] then rules
    else List.sort_uniq Stdlib.compare (List.map (fun d -> (d.code, "")) ds)
  in
  let rule_json (id, summary) =
    Json.Obj
      (("id", Json.Str id)
      ::
      (if summary = "" then []
       else [ ("shortDescription", Json.Obj [ ("text", Json.Str summary) ]) ]))
  in
  Json.Obj
    [
      ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.Arr
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.Str tool_name);
                            ("version", Json.Str tool_version);
                            ("rules", Json.Arr (List.map rule_json rules));
                          ] );
                    ] );
                ("results", Json.Arr (List.map result ds));
              ];
          ] );
    ]

type format = Human | Json | Sarif

let render format ppf ds =
  let ds = List.sort compare ds in
  match format with
  | Human -> List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds
  | Json ->
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "nmlc/diagnostics-v1");
            ("diagnostics", Json.Arr (List.map to_json ds));
          ]
      in
      Format.fprintf ppf "%s" (Json.to_string doc)
  | Sarif -> Format.fprintf ppf "%s" (Json.to_string (to_sarif ds))

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let report ds line =
  (if ds = [] then "" else Format.asprintf "%a@." (render Human) ds) ^ line ^ "\n"
