"""Cyclic redundancy checks for packet integrity.

The paper's receiver "can also use the CRC to perform a checksum on the
received packets and request retransmissions of corrupted packets"
(Sec. 5.1b).  We implement the two standard RFID-style checks: CRC-8
(polynomial 0x07) for short headers and CRC-16/CCITT-FALSE (polynomial
0x1021, init 0xFFFF) — the one EPC Gen2 uses — for payloads.
"""

from __future__ import annotations


def _to_bytes(data) -> bytes:
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


def crc8(data, *, polynomial: int = 0x07, init: int = 0x00) -> int:
    """CRC-8 of a byte string (ATM HEC polynomial by default)."""
    crc = init
    for byte in _to_bytes(data):
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ polynomial) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


def _crc16_table() -> tuple[int, ...]:
    """The CRC-16/CCITT remainder of each byte value shifted to the top."""
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


_CRC16_TABLE = _crc16_table()


def crc16_ccitt(data, *, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE of a byte string (EPC Gen2 / XMODEM family).

    Table-driven: each byte's eight shift-and-xor steps are one lookup
    of the high byte xor the data byte (the steps are linear over GF(2)).
    """
    crc = init
    for byte in _to_bytes(data):
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def append_crc16(data) -> bytes:
    """Return ``data`` with its big-endian CRC-16 appended."""
    payload = _to_bytes(data)
    crc = crc16_ccitt(payload)
    return payload + bytes([(crc >> 8) & 0xFF, crc & 0xFF])


def check_crc16(frame) -> bool:
    """Verify a frame produced by :func:`append_crc16`."""
    frame = _to_bytes(frame)
    if len(frame) < 2:
        return False
    expected = (frame[-2] << 8) | frame[-1]
    return crc16_ccitt(frame[:-2]) == expected
