type secret = Dip_crypto.Prf.key

let secret_of_string = Dip_crypto.Prf.key_of_string

let secret_gen g =
  Dip_crypto.Prf.key_of_string (Bytes.to_string (Dip_stdext.Prng.bytes g 16))

type session_key = string

let label = "opt-session"

let derive secret ~session_id = Dip_crypto.Prf.derive_int secret ~label session_id

let session_frame secret = Dip_crypto.Prf.frame secret ~label ~input_len:8

let session_keys secrets ~session_id =
  List.map (fun s -> derive s ~session_id) secrets
