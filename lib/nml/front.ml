let read path = In_channel.with_open_text path In_channel.input_all
let of_string ~file src = Infer.infer_program (Surface.of_string ~file src)
let rejects = function Lexer.Error _ | Parser.Error _ | Infer.Error _ -> true | _ -> false

let failure ?(format = Diagnostic.Human) ?(more = fun _ -> None) e =
  let diagnostic code loc msg =
    (1, Format.asprintf "%a@." (Diagnostic.render format) [ Diagnostic.error ~code loc msg ])
  in
  match e with
  | Lexer.Error (loc, msg) -> diagnostic "LEX001" loc msg
  | Parser.Error (loc, msg) -> diagnostic "PARSE001" loc msg
  | Infer.Error (loc, msg) -> diagnostic "TYPE001" loc msg
  | Eval.Runtime_error msg -> (1, Printf.sprintf "runtime error: %s\n" msg)
  | Failure msg | Invalid_argument msg | Sys_error msg -> (1, Printf.sprintf "error: %s\n" msg)
  | e -> (
      match more e with
      | Some r -> r
      | None -> (124, Printf.sprintf "nmlc: internal error: %s\n" (Printexc.to_string e)))
