(** The request/response layer of the analysis server: JSON-RPC-style
    documents over {!Frame}, reusing [Nml.Json].

    Server-side failures carry stable [SRV0xx] codes; toolchain
    diagnostics for the analyzed file travel {e inside} a success
    result, rendered exactly as [nmlc batch] renders them (the basis of
    the server ≡ warm batch ≡ cold batch differential). *)

type meth = Analyze | Vet | Lint | Status | Shutdown

val meth_of_name : string -> meth option

type request = {
  id : Nml.Json.t option;  (** [Str] or [Num], echoed verbatim *)
  meth : meth;
  path : string option;
  source : string option;
  analysis : string option;
      (** [analyze] only: the registered analysis to run (default escape) *)
  deadline_ms : int option;
  boom : bool;
      (** fault-injection marker; honored only under [--inject-fault] *)
}

val parse :
  string -> (request, Nml.Json.t option * string * string) result
(** [parse payload] is the request, or [(id, srv_code, message)]. *)

val ok : ?id:Nml.Json.t -> Nml.Json.t -> string
(** A rendered success response. *)

val error :
  ?id:Nml.Json.t -> ?retry_after_ms:int -> code:string -> string -> string
(** A rendered error response. *)

(** {2 The SRV code registry} *)

val srv_malformed : string  (** SRV001 *)

val srv_invalid : string  (** SRV002 *)

val srv_oversized : string  (** SRV003 *)

val srv_deadline : string  (** SRV004 *)

val srv_overload : string  (** SRV005 *)

val srv_crash : string  (** SRV006 *)

val srv_quarantined : string  (** SRV007 *)

val srv_draining : string  (** SRV008 *)

