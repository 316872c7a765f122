"""Run the command-line interface: python -m accr COMMAND ..."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
