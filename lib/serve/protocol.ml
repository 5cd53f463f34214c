(* The JSON-RPC-style request/response layer over [Frame], reusing the
   toolchain's own [Nml.Json] tree.

   Request:  {"id": 1, "method": "analyze",
              "params": {"path": "foo.nml", "deadline_ms": 500}}
   Success:  {"id": 1, "result": {...}}
   Failure:  {"id": 1, "error": {"code": "SRV004", "message": "...",
              "retry_after_ms": 50}}

   Server-side failures carry stable SRV0xx codes (the toolchain's
   diagnostic-code registry), distinct from per-file toolchain
   diagnostics, which travel *inside* a success result exactly as
   [nmlc batch] renders them — so a parse error in the analyzed file is
   a successful RPC whose result has code 1, and the three-way
   differential against batch output stays byte-exact. *)

module J = Nml.Json

type meth = Analyze | Vet | Lint | Status | Shutdown

let meth_of_name = function
  | "analyze" -> Some Analyze
  | "vet" -> Some Vet
  | "lint" -> Some Lint
  | "status" -> Some Status
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  id : J.t option;  (* Str or Num; echoed verbatim *)
  meth : meth;
  path : string option;
  source : string option;
  analysis : string option;  (* analyze only: a registered analysis name *)
  deadline_ms : int option;
  boom : bool;  (* fault-injection marker, honored only under --inject-fault *)
}

(* ---- the SRV code registry -------------------------------------------------- *)

let srv_malformed = "SRV001"
let srv_invalid = "SRV002"
let srv_oversized = "SRV003"
let srv_deadline = "SRV004"
let srv_overload = "SRV005"
let srv_crash = "SRV006"
let srv_quarantined = "SRV007"
let srv_draining = "SRV008"

(* ---- parsing ---------------------------------------------------------------- *)

let parse payload =
  match J.parse payload with
  | exception J.Parse_error msg ->
      Error (None, srv_malformed, "unparsable JSON payload: " ^ msg)
  | json -> (
      let id =
        match J.member "id" json with
        | Some (J.Str _ as v) | Some (J.Num _ as v) -> Some v
        | _ -> None
      in
      let invalid msg = Error (id, srv_invalid, msg) in
      match J.member "method" json with
      | Some (J.Str m) -> (
          match meth_of_name m with
          | None -> invalid (Printf.sprintf "unknown method %S" m)
          | Some meth ->
              let params = J.member "params" json in
              let pmem k =
                match params with None -> None | Some p -> J.member k p
              in
              let str k =
                match pmem k with Some (J.Str s) -> Some s | _ -> None
              in
              let num k =
                match pmem k with
                | Some (J.Num f) -> Some (int_of_float f)
                | _ -> None
              in
              let boom =
                match pmem "boom" with Some (J.Bool b) -> b | _ -> false
              in
              let req =
                {
                  id;
                  meth;
                  path = str "path";
                  source = str "source";
                  analysis = str "analysis";
                  deadline_ms = num "deadline_ms";
                  boom;
                }
              in
              if
                (meth = Analyze || meth = Vet || meth = Lint)
                && req.path = None && req.source = None
              then invalid "params must carry a \"path\" or a \"source\""
              else Ok req)
      | _ -> invalid "missing \"method\"")

(* ---- rendering --------------------------------------------------------------- *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", id) :: fields

let ok ?id result = J.to_string (J.Obj (with_id id [ ("result", result) ]))

let error ?id ?retry_after_ms ~code message =
  let retry =
    match retry_after_ms with
    | None -> []
    | Some ms -> [ ("retry_after_ms", J.int ms) ]
  in
  J.to_string
    (J.Obj
       (with_id id
          [
            ( "error",
              J.Obj
                ([ ("code", J.Str code); ("message", J.Str message) ] @ retry) );
          ]))
