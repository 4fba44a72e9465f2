"""Frame-level protocol validation (no server involved)."""

import json

import pytest

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    request_frame,
    validate_request,
)


def frame(**overrides) -> dict:
    payload = {"id": 1, "type": "ping", "version": PROTOCOL_VERSION}
    payload.update(overrides)
    return payload


def expect_error(payload: dict, code: str) -> ProtocolError:
    with pytest.raises(ProtocolError) as excinfo:
        validate_request(payload)
    assert excinfo.value.code == code
    return excinfo.value


class TestFraming:
    def test_round_trip(self):
        payload = frame(type="stats")
        assert decode_frame(encode_frame(payload)) == payload

    def test_frame_is_one_line(self):
        assert encode_frame(frame()).endswith(b"\n")
        assert encode_frame(frame()).count(b"\n") == 1

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"this is not json\n")
        assert excinfo.value.code == "bad-json"

    def test_bad_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b'\xff\xfe"x"\n')
        assert excinfo.value.code == "bad-json"

    def test_not_object(self):
        for literal in (b"[1,2,3]\n", b'"hello"\n', b"42\n", b"null\n"):
            with pytest.raises(ProtocolError) as excinfo:
                decode_frame(literal)
            assert excinfo.value.code == "not-object"

    def test_frame_too_large(self):
        line = encode_frame(frame(sources={"m": "x" * 100}))
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(line, limit=16)
        assert excinfo.value.code == "frame-too-large"

    def test_request_frame_validates(self):
        line = request_frame(7, "edit", session="s1", module="m",
                             text="int main() { return 0; }")
        request_id, operation, params = validate_request(
            decode_frame(line)
        )
        assert request_id == 7
        assert operation == "edit"
        assert params["module"] == "m"


class TestValidation:
    def test_missing_id(self):
        payload = frame()
        del payload["id"]
        error = expect_error(payload, "missing-id")
        assert error.request_id is None

    def test_non_scalar_id(self):
        expect_error(frame(id=[1]), "missing-id")

    def test_bool_id(self):
        # JSON true decodes to bool, an int subclass; it is no id.
        expect_error(frame(id=True), "missing-id")

    def test_bool_version(self):
        # True == 1 == PROTOCOL_VERSION, yet a bool names no version.
        expect_error(frame(version=True), "version-mismatch")

    def test_version_mismatch(self):
        error = expect_error(frame(version=99), "version-mismatch")
        # The error names both versions so clients can self-diagnose.
        assert "99" in error.message
        assert str(PROTOCOL_VERSION) in error.message
        assert error.request_id == 1

    def test_version_absent(self):
        payload = frame()
        del payload["version"]
        expect_error(payload, "version-mismatch")

    def test_missing_type(self):
        payload = frame()
        del payload["type"]
        expect_error(payload, "missing-type")

    def test_unknown_type(self):
        error = expect_error(frame(type="explode"), "unknown-type")
        assert "explode" in error.message

    def test_missing_required_field(self):
        expect_error(frame(type="edit", module="m", text="x"),
                     "missing-field")

    def test_wrong_field_type(self):
        expect_error(
            frame(type="edit", session=5, module="m", text="x"),
            "bad-field",
        )

    def test_unexpected_field(self):
        expect_error(frame(type="ping", shoes=2), "bad-field")

    def test_bad_sources_mapping(self):
        expect_error(
            frame(type="open_session", sources={"m": 42}), "bad-field"
        )

    def test_bad_config_letter(self):
        expect_error(
            frame(type="open_session", config="Z"), "bad-field"
        )

    def test_bad_allocator(self):
        expect_error(
            frame(type="open_session", allocator="bogus"), "bad-field"
        )

    def test_allocator_name_any_case(self):
        _id, _op, params = validate_request(
            frame(type="open_session", allocator="Paper")
        )
        assert params["allocator"] == "Paper"

    def test_bad_opt_level(self):
        expect_error(
            frame(type="open_session", opt_level=9), "bad-field"
        )

    def test_bool_opt_level(self):
        # False == 0 would open a session at level 0.
        expect_error(
            frame(type="open_session", opt_level=False), "bad-field"
        )

    def test_bool_max_cycles(self):
        expect_error(
            frame(type="open_session", max_cycles=True), "bad-field"
        )

    def test_null_text_removes(self):
        _id, _op, params = validate_request(
            frame(type="edit", session="s1", module="m", text=None)
        )
        assert params["text"] is None

    def test_all_operations_have_schemas(self):
        for operation in ("open_session", "edit", "compile", "profile",
                          "stats", "close", "ping", "shutdown"):
            payload = frame(type=operation)
            if operation in ("edit",):
                payload.update(session="s", module="m", text="x")
            elif operation in ("compile", "profile", "close"):
                payload.update(session="s")
            _id, parsed, _params = validate_request(payload)
            assert parsed == operation


class TestResponses:
    def test_ok_shape(self):
        response = ok_response(3, {"pong": True})
        assert response == {"id": 3, "ok": True,
                            "result": {"pong": True}}

    def test_error_shape(self):
        response = error_response(None, "bad-json", "nope")
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"]["code"] == "bad-json"

    def test_responses_encode(self):
        for response in (ok_response(1, {}),
                         error_response(2, "x", "y")):
            assert json.loads(encode_frame(response).decode())
