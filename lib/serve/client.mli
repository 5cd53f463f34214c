(** The one-shot client behind [nmlc serve --connect]: one request frame
    out, one response frame back. *)

val request : ?path:string -> ?deadline_ms:int -> string -> string
(** The JSON payload calling a method (id 1) with its optional params.
    @raise Failure on an unknown method. *)

val call : socket:string -> string -> string
(** Sends one payload to the server listening on [socket] and returns
    its response.  @raise Failure when the exchange cannot complete. *)

val is_error : string -> bool
(** Whether a response is an error response. *)
