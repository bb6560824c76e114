"""The focusrank benchmark; see README.md and run.py."""
