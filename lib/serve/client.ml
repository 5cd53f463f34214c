module J = Nml.Json

let request ?path ?deadline_ms meth =
  if Protocol.meth_of_name meth = None then failwith (Printf.sprintf "unknown method %S" meth);
  let params =
    (match path with Some f -> [ ("path", J.Str f) ] | None -> [])
    @ match deadline_ms with Some d -> [ ("deadline_ms", J.int d) ] | None -> []
  in
  J.to_string
    (J.Obj
       ([ ("id", J.int 1); ("method", J.Str meth) ]
       @ if params = [] then [] else [ ("params", J.Obj params) ]))

let call ~socket payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
          failwith (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e)));
      if not (Frame.write fd payload) then
        failwith "the server closed the connection before the request was sent";
      match Frame.read fd with
      | Error e -> failwith (Format.asprintf "no response: %a" Frame.pp_error e)
      | Ok resp -> resp)

let is_error resp =
  match J.parse resp with
  | exception J.Parse_error _ -> false
  | json -> J.member "error" json <> None
