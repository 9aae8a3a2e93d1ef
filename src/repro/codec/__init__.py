"""Codec substrate: analytic encode/decode/size model + Spark transcode job."""
